//! Page mapping modes.
//!
//! Every shared page, on every node, is in one of four states.  The mode
//! determines how a cache miss to the page is serviced and is the object
//! the five architectures' policies manipulate:
//!
//! * `Home` — this node is the page's home; misses go to local DRAM.
//! * `Numa` — mapped to the remote home's global physical address
//!   (CC-NUMA mode); misses probe the RAC, then go remote.
//! * `Scoma` — backed by a local DRAM frame acting as a page-grained cache
//!   (S-COMA mode); misses to *valid* blocks are local, invalid blocks
//!   fetch remotely and fill the frame.
//! * `Unmapped` — not yet touched by this node; the first access takes a
//!   page fault that establishes one of the other modes.

/// Mapping mode of one shared page on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageMode {
    /// Untouched: first access faults.
    Unmapped,
    /// This node is the page's home.
    Home,
    /// CC-NUMA mapping to the remote home.
    Numa,
    /// S-COMA mapping backed by local frame `frame`.
    Scoma {
        /// Index of the local DRAM frame caching this page.
        frame: u32,
    },
}

impl PageMode {
    /// True if the page is S-COMA-mapped.
    #[inline]
    pub fn is_scoma(self) -> bool {
        matches!(self, PageMode::Scoma { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(PageMode::Scoma { frame: 3 }.is_scoma());
        assert!(!PageMode::Numa.is_scoma());
        assert!(!PageMode::Home.is_scoma());
        assert!(!PageMode::Unmapped.is_scoma());
    }
}
