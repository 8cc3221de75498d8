//! Output digests and the committed seed-0 references.
//!
//! A cell's digest is FNV-1a over the `Debug` rendering of its
//! `RunResult` with the observability fields (`obs`, `metrics`) cleared,
//! the recipe of `tests/golden_digest.rs`: any single-cycle drift
//! anywhere in the result changes it.  Observed cells also digest their
//! `MetricsDigest` on its own.

/// The committed references: seed 0, full size.  Regenerate with
/// `benchmark all --bless`.
pub const REFERENCES: &str = include_str!("../references.txt");

/// Where `--bless` writes the references (the source tree, read back at
/// the next build).
pub const REFERENCES_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/references.txt");

/// FNV-1a, 64-bit, fed incrementally so a large `Debug` rendering is
/// hashed as it is written instead of first being collected.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Digest of `v`'s `Debug` rendering.  For a `RunResult` the caller
/// clears `obs` and `metrics` first.
pub fn of_debug(v: &dyn std::fmt::Debug) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv::default();
    let _ = write!(h, "{v:?}");
    h.0
}

/// One reference: the result digest and, for observed cells, the
/// metrics digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Result digest.
    pub result: u64,
    /// Metrics digest (observed cells only).
    pub metrics: Option<u64>,
}

/// Parse reference lines `<workload> <app> <arch> <pressure> <digest>
/// [<metrics digest>]`; `#` starts a comment line.
pub fn parse(text: &str) -> Result<Vec<(String, Reference)>, String> {
    let hex = |s: &str| {
        u64::from_str_radix(s.trim_start_matches("0x"), 16)
            .map_err(|e| format!("bad digest '{s}': {e}"))
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            if f.len() != 5 && f.len() != 6 {
                return Err(format!("bad reference line '{l}'"));
            }
            let metrics = match f.get(5) {
                Some(m) => Some(hex(m)?),
                None => None,
            };
            Ok((
                f[..4].join(" "),
                Reference {
                    result: hex(f[4])?,
                    metrics,
                },
            ))
        })
        .collect()
}

/// Render references in the committed format.
pub fn render(refs: &[(String, Reference)]) -> String {
    let mut out = String::from(
        "# Seed-0 full-size cell digests: <workload> <app> <arch> <pressure> <result> [<metrics>].\n\
         # Regenerate with `benchmark all --bless` (only for an intended model change).\n",
    );
    for (k, r) in refs {
        out.push_str(&format!("{k} {:#018x}", r.result));
        if let Some(m) = r.metrics {
            out.push_str(&format!(" {m:#018x}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `tests/golden_digest.rs`'s committed em3d AS-COMA@0.7 digest.
    const GOLDEN_ASCOMA: u64 = 0xe065_e3af_2739_06ce;

    #[test]
    fn fnv_matches_the_published_vectors() {
        assert_eq!(Fnv::default().0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.update(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        // `Debug` of a str quotes it: the digest covers `"a"`.
        let mut q = Fnv::default();
        q.update(b"\"a\"");
        assert_eq!(of_debug(&"a"), q.0);
    }

    #[test]
    fn committed_references_parse_and_agree_with_the_golden_digest() {
        let refs = parse(REFERENCES).expect("references parse");
        assert_eq!(refs.len(), 13 + 42 + 7);
        let golden = refs
            .iter()
            .find(|(k, _)| k == "observed em3d ASCOMA 0.7")
            .expect("observed em3d AS-COMA@0.7 has a reference");
        assert_eq!(golden.1.result, GOLDEN_ASCOMA);
        assert!(golden.1.metrics.is_some());
        assert_eq!(parse(&render(&refs)).expect("round trip"), refs);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse("a b c 0.5").is_err());
        assert!(parse("a b c 0.5 0xzz").is_err());
    }
}
