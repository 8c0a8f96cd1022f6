"""Gauge-twisted Gaussian free fields on electrical networks.

Exact solvers for (twisted) Laplacians, Green functions and their determinant
identities; double covers induced by edge-sign gauge fields; exact samplers
for the fields, their sign-cluster topology, and random walk loop soups; and
reproducible Monte Carlo estimators tying everything together.
"""

from .cover import (DoubleCover, build_double_cover, covering_isomorphism,
                    fundamental_domain, is_cover_connected, lift_path)
from .gauge import (DiscretePath, apply_gauge_transform, are_gauge_equivalent,
                    holonomy, is_trivial)
from .gff import (ClusterConfiguration, EstimatorReport, GffSample,
                  MetricFieldGrid, conditional_moment, detect_event,
                  estimate_event_probability, make_cluster_configuration,
                  open_probability, sample_cluster_configuration,
                  sample_cover_gff_and_project, sample_cover_gff_batch,
                  sample_gff, sample_metric_field, sample_twisted_gff,
                  sign_flip_transform, two_point_connectivity)
from .loopsoup import (Loop, LoopSoupSample, LoopSoupSampler, OccupationField,
                       kl_isomorphism_check, loop_holonomy, occupation_field,
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
