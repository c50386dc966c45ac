//! Mobile edge-cloud (MEC) network substrate.
//!
//! Models the environment of the ICPP 2020 reliability-augmentation paper:
//! an undirected network `G = (V, E)` of access points, a subset of which are
//! co-located with cloudlets carrying computing capacity; a catalog of
//! network-function types with per-instance computing demands and
//! reliabilities; SFC requests with reliability expectations; and the
//! admission step that places the *primary* VNF instances which the
//! augmentation algorithms then protect with secondaries.
//!
//! Layout:
//!
//! * [`graph`] — undirected graph, BFS hop distances, `l`-hop neighborhoods
//!   (`N_l(v)` / `N_l^+(v)` of the paper's Section 3).
//! * [`topology`] — generators: Waxman (the model behind GT-ITM's flat random
//!   graphs used in the paper's evaluation), grid, ring, Erdős–Rényi,
//!   complete; plus connectivity repair.
//! * [`network`] — cloudlet placement and capacities over a graph.
//! * [`vnf`] — network-function catalog (`c(f_i)`, `r_i`).
//! * [`request`] — SFC requests with reliability expectations `ρ_j`.
//! * [`admission`] — primary-placement strategies: the random placement used
//!   in the paper's evaluation and a max-reliability DAG placement following
//!   Ma et al. (TPDS 2020), the framework the paper cites for admission.
//! * [`workload`] — parameterized generators mirroring the paper's Section
//!   7.1 experiment settings.

pub mod admission;
pub mod dot;
pub mod graph;
pub mod neighborhood;
pub mod network;
pub mod request;
pub mod topology;
pub mod transit_stub;
pub mod vnf;
pub mod workload;

pub use graph::{Graph, NodeId};
pub use neighborhood::NeighborhoodIndex;
pub use network::{MecNetwork, Reservation, ReservationState, ReserveError};
pub use request::SfcRequest;
pub use vnf::{VnfCatalog, VnfType, VnfTypeId};
