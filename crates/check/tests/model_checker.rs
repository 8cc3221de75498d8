//! Counterexample artifacts through the public engine API: every seeded
//! mutation is caught, its trace replays to the same invariant, and it
//! renders to the JSONL artifact (a header, then one line per step).
//!
//! The harness built in every configuration is a cache-side *caller* of
//! the production [`Directory`]: per-node L1 line states for one block,
//! updated from the directory's real `fetch`/`upgrade` answers.  Its
//! mutations are caller bugs — mis-applying those answers — so they need
//! no fault hooks.  With `--features check` the production directory and
//! frame-pool faults ([`ConformMutation::SAFETY`]) are rendered too.

use ascoma_check::explore::{bfs, replay_on};
use ascoma_check::Harness;
use ascoma_proto::Directory;
use ascoma_sim::addr::{BlockId, Geometry, VPage};
use ascoma_sim::NodeId;

const MAX_STATES: usize = 4_000_000;

/// The one block every caller action touches.
const BLOCK: BlockId = BlockId(0);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Line {
    Invalid,
    Shared,
    Modified,
}

/// A caller that mis-applies one kind of directory answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallerBug {
    /// A write applies all but the first invalidation it is handed.
    DropInvalidation,
    /// A read served by a 3-hop forward leaves the old owner `Modified`.
    IgnoreForward,
}

impl CallerBug {
    const ALL: [CallerBug; 2] = [CallerBug::DropInvalidation, CallerBug::IgnoreForward];
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read(u16),
    Write(u16),
}

struct Caller {
    nodes: u16,
    ops_per_node: u8,
    bug: Option<CallerBug>,
}

#[derive(Clone)]
struct CallerState {
    dir: Directory,
    lines: Vec<Line>,
    ops_left: Vec<u8>,
}

impl Harness for Caller {
    type State = CallerState;
    type Action = Op;

    fn initial(&self) -> CallerState {
        let n = self.nodes as usize;
        CallerState {
            dir: Directory::new(Geometry::new(4096, 128, 32), 1, n),
            lines: vec![Line::Invalid; n],
            ops_left: vec![self.ops_per_node; n],
        }
    }

    fn enabled(&self, s: &CallerState) -> Vec<Op> {
        let mut acts = Vec::new();
        for n in 0..self.nodes {
            if s.ops_left[n as usize] == 0 {
                continue;
            }
            match s.lines[n as usize] {
                Line::Invalid => acts.extend([Op::Read(n), Op::Write(n)]),
                Line::Shared => acts.push(Op::Write(n)),
                Line::Modified => {}
            }
        }
        acts
    }

    fn step(&self, s: &CallerState, a: &Op) -> Result<CallerState, String> {
        let mut t = s.clone();
        let (Op::Read(n) | Op::Write(n)) = *a;
        let node = NodeId(n);
        t.ops_left[n as usize] -= 1;
        match *a {
            Op::Read(_) => {
                let out = t.dir.fetch(node, BLOCK, false);
                if let Some(owner) = out.forward_from {
                    if self.bug != Some(CallerBug::IgnoreForward) {
                        t.lines[owner.idx()] = Line::Shared;
                    }
                }
                t.lines[n as usize] = Line::Shared;
            }
            Op::Write(_) => {
                let invalidate = if s.lines[n as usize] == Line::Shared {
                    t.dir.upgrade(node, BLOCK)
                } else {
                    t.dir.fetch(node, BLOCK, true).invalidate
                };
                let skip = usize::from(self.bug == Some(CallerBug::DropInvalidation));
                for victim in invalidate.iter().skip(skip) {
                    t.lines[victim.idx()] = Line::Invalid;
                }
                t.lines[n as usize] = Line::Modified;
            }
        }
        Ok(t)
    }

    fn check(&self, s: &CallerState) -> Result<(), (String, String)> {
        let writers = s.lines.iter().filter(|&&l| l == Line::Modified).count();
        let holders = s.lines.iter().filter(|&&l| l != Line::Invalid).count();
        if writers > 1 || (writers == 1 && holders > 1) {
            return Err(("swmr".to_string(), format!("lines {:?}", s.lines)));
        }
        for (n, &line) in s.lines.iter().enumerate() {
            let node = NodeId(n as u16);
            let owns = s.dir.owner_of(BLOCK) == Some(node);
            if (line != Line::Invalid && !s.dir.in_copyset(node, BLOCK))
                || ((line == Line::Modified) != owns)
            {
                return Err((
                    "directory-cache-agreement".to_string(),
                    format!("node {n} holds {line:?}, directory owner {owns}"),
                ));
            }
        }
        Ok(())
    }

    fn canon(&self, s: &CallerState) -> Vec<u64> {
        let mut v = vec![
            s.dir.copyset_of(BLOCK).0,
            s.dir.owner_of(BLOCK).map_or(0, |o| o.idx() as u64 + 1),
            s.dir.ever_of(BLOCK).0,
            s.dir.induced_of(BLOCK).0,
            s.dir.page_written(VPage(0)) as u64,
        ];
        for n in 0..self.nodes {
            v.push(s.dir.refetch_count(VPage(0), NodeId(n)) as u64);
            v.push(s.lines[n as usize] as u64);
            v.push(s.ops_left[n as usize] as u64);
        }
        v
    }

    fn action_json(&self, a: &Op, step: usize) -> String {
        let (op, n) = match *a {
            Op::Read(n) => ("read", n),
            Op::Write(n) => ("write", n),
        };
        format!("{{\"step\":{step},\"op\":\"{op}\",\"node\":{n}}}")
    }
}

/// BFS catches the fault in `h`; its trace replays to the same invariant
/// and is 1-minimal (dropping any single step stops it from replaying to
/// that invariant), and the artifact renders one balanced JSON line per
/// step under its header.
fn assert_caught_replays_and_renders<H: Harness>(h: &H, label: &str) {
    let out = bfs(h, MAX_STATES);
    let cex = out
        .violation
        .unwrap_or_else(|| panic!("{label}: not detected"));
    assert!(!cex.trace.is_empty(), "{label}: empty trace");
    let (inv, _) =
        replay_on(h, &cex.trace).unwrap_or_else(|| panic!("{label}: trace replays clean"));
    assert_eq!(inv, cex.invariant, "{label}: replay diverges");
    for i in 0..cex.trace.len() {
        let mut probe = cex.trace.clone();
        probe.remove(i);
        assert_ne!(
            replay_on(h, &probe).map(|(inv, _)| inv).as_ref(),
            Some(&cex.invariant),
            "{label}: step {i} of the BFS trace is removable"
        );
    }
    let jsonl = cex.to_jsonl(h);
    assert_eq!(jsonl.lines().count(), cex.trace.len() + 1, "{label}");
    assert!(
        jsonl.starts_with(&format!("{{\"counterexample\":{:?}", cex.invariant)),
        "{label}: header {jsonl}"
    );
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "{label}: {line}"
        );
        assert_eq!(
            line.matches('"').count() % 2,
            0,
            "{label}: unbalanced {line}"
        );
    }
}

#[test]
fn every_mutation_counterexample_replays_and_renders() {
    // The correct caller is clean, so each bug's catch is its own.
    let clean = Caller {
        nodes: 3,
        ops_per_node: 2,
        bug: None,
    };
    let out = bfs(&clean, MAX_STATES);
    assert!(out.complete, "correct caller hit the state cap");
    assert!(
        out.violation.is_none(),
        "correct caller flagged: {:?}",
        out.violation.map(|v| (v.invariant, v.detail))
    );
    for bug in CallerBug::ALL {
        let h = Caller {
            bug: Some(bug),
            ..clean
        };
        assert_caught_replays_and_renders(&h, &format!("{bug:?}"));
    }

    #[cfg(feature = "check")]
    {
        use ascoma_check::conform::{ConformConfig, ConformHarness, ConformMutation};
        for m in ConformMutation::SAFETY {
            let base = match m {
                ConformMutation::SkipInval | ConformMutation::SkipForward => {
                    ConformConfig::coherence(2, 1, 1, 2)
                }
                _ => ConformConfig::remap(2, 2, 1, 3),
            };
            let cfg = ConformConfig {
                mutation: Some(m),
                ..base
            };
            assert_caught_replays_and_renders(&ConformHarness::new(cfg), m.name());
        }
    }
}
