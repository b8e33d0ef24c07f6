"""grflab: generalized Ricci flow on invariant frames.

Linear algebra of exact Courant algebroids, Bismut-type curvature of
invariant metrics with closed torsion, the coupled (g, H) flow and its
ansatz reductions, Buscher duality on circle bundles, and periodic torus
reductions of the flow to scalar parabolic equations.
"""

from .courant import (CourantAxiomReport, GeneralizedMetric,
                      GeneralizedVector, LieFrame, ThreeForm, TwoForm,
                      abelian_frame, aff_r2_frame, b_field_transform,
                      courant_axiom_report, direct_sum_frame,
                      dorfman_invariant, exterior_d_invariant,
                      eigenbundle_projections, generalized_metric,
                      milnor_su2_frame, neutral_pair, su2_frame,
                      su2_r_frame)
from .geometry import (BianchiReport, ConnectionCoefficients, Curvature,
                       CurvatureTensor, DivergenceData,
                       bi_invariant_three_form, bianchi_suite,
                       bismut_connection, bismut_ricci, bismut_scalar,
                       codifferential, covariant_derivative, curvature,
                       divergence, generalized_ricci, generalized_scalar,
                       generalized_scalar_pair, h_norm2, h_squared,
                       hopf_einstein_pair, levi_civita, ricci, riemann,
                       scalar_curvature, volume_three_form)
from .flow import (FlowConfig, FlowSingularity, FlowState, FlowTrajectory,
                   SolitonReport, circle_bundle_rhs, grf_rhs,
                   hyperbolic_ode_rhs, integrate, lambda_homogeneous,
                   milnor_su2_rhs, neck_ode_rhs, rk4_path, rk4_step,
                   soliton_residual, sphere_ode_rhs, threefold_rhs)
from .tduality import (CircleBundleData, CommutationReport, ExchangeReport,
                       VerticalDensity, buscher_dual, circle_bundle_dual_rhs,
                       dilaton_shift, einstein_exchange_check,
                       flow_commutation_check, hopf_einstein_pair_dual)
from .pde import (PdeTrajectory, PeriodicGrid, PositivityError, gkrf_rhs,
                  krf_rhs, lambda_eigen, laplacian, pde_integrate,
                  second_difference)

__version__ = "0.1.0"
