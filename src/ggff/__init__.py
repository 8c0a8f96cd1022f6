"""Gauge-twisted Gaussian free fields on electrical networks.

Exact solvers for (twisted) Laplacians, Green functions and their determinant
identities; double covers induced by edge-sign gauge fields; exact samplers
for the fields, their sign-cluster topology, and random walk loop soups; and
reproducible Monte Carlo estimators tying everything together.
"""

from .cover import DoubleCover, build_double_cover
from .gauge import apply_gauge_transform, are_gauge_equivalent, is_trivial
from .gff import (EstimatorReport, MetricFieldGrid, conditional_moment,
                  estimate_event_probability, open_probability,
                  sample_cover_gff_batch, sample_metric_field,
                  two_point_connectivity)
from .loopsoup import (Loop, LoopSoupSample, LoopSoupSampler, kl_isomorphism_check,
                       sample_loop_soup, soup_moments, split_by_holonomy)
from .network import (Edge, ElectricalNetwork, GaugeField, InvalidNetworkError,
                      NetworkFormatError, SubdividedNetwork, VertexSigns,
                      edge_key, load_network, save_network, subdivide, validate)
from .spectral import (GreenMatrix, LaplacianMatrix, cover_green,
                       cover_green_relations, det_ratio, green, laplacian,
                       loop_mass, negative_holonomy_mass, restricted_green,
                       subspace_determinants, subspace_log_determinants,
                       twisted_green, twisted_laplacian, twisted_loop_mass,
                       write_csv)

__version__ = "0.1.0"
