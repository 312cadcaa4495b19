//! Cellular (4G/5G) substrate: band plans, a cellmapper-style tower
//! database, and an srsUE-style cell scanner that measures RSRP.
//!
//! §3.2 of the paper: "We utilized srsUE as software client user
//! equipment … srsUE is able to scan for nearby cellular networks and
//! measure their Reference Signal Received Power (RSRP) … There are
//! databases such as cellmapper.net that show cellular towers in a region
//! with their exact channel (i.e., ARFCN)."
//!
//! The scanner here reproduces that measurement chain at the link level:
//! tower EIRP → per-resource-element reference power → path profile from
//! the environment model → RSRP at the antenna port → synchronization
//! threshold. A cell below the threshold yields **no measurement** — the
//! paper's "missing bar" in Figure 3.

pub mod bands;
pub mod nr;
pub mod scan;
pub mod tower;

pub use bands::{earfcn_to_dl_freq_hz, Band};
pub use nr::{nr_arfcn_to_freq_hz, nr_extension_cells, NrBand, NrCell};
pub use scan::{CellMeasurement, CellScanner, ScanConfig};
pub use tower::{paper_towers, CellTower, TowerDatabase};
