//! The safety engine over any [`Harness`]: exhaustive breadth-first
//! search.
//!
//! [`bfs`] visits every reachable canonical state and checks every
//! invariant in each, so the first violation found is at minimal depth
//! and the parent chain reconstructs a shortest counterexample trace: no
//! shorter legal trace reaches a violating state, so the trace needs no
//! shrinking before it is written as an artifact.  The search makes no
//! reduction assumptions about which actions commute.

use crate::harness::Harness;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A path from the initial state of a harness to a violating state.
#[derive(Debug, Clone)]
pub struct Cex<A> {
    /// Name of the violated invariant (or the illegal-transition class).
    pub invariant: String,
    /// Human-readable description of the failure.
    pub detail: String,
    /// The action sequence reproducing the violation from the initial
    /// state.
    pub trace: Vec<A>,
}

impl<A> Cex<A> {
    /// Render the trace as JSONL (one action per line, obs-style), with a
    /// header line naming the invariant — the artifact CI uploads.
    pub fn to_jsonl<H: Harness<Action = A>>(&self, h: &H) -> String {
        let mut out = format!(
            "{{\"counterexample\":{:?},\"detail\":{:?},\"steps\":{}}}\n",
            self.invariant,
            self.detail,
            self.trace.len()
        );
        for (i, a) in self.trace.iter().enumerate() {
            out.push_str(&h.action_json(a, i));
            out.push('\n');
        }
        out
    }
}

/// What an exploration covered, and what (if anything) it found.
#[derive(Debug, Clone)]
pub struct Outcome<A> {
    /// Distinct reachable canonical states visited.
    pub states: usize,
    /// Transitions applied (including ones reaching known states).
    pub transitions: usize,
    /// Maximum BFS level reached.
    pub depth: usize,
    /// Whether the state space was covered (false: cap hit or violation
    /// stopped the search).
    pub complete: bool,
    /// The first violation found, if any.
    pub violation: Option<Cex<A>>,
    /// Transitions applied per [`Harness::action_kind`], sorted by kind
    /// name — the coverage evidence that (say) a fault-enabled run
    /// actually took drop/resend actions rather than exploring protocol
    /// traffic only.
    pub kinds: Vec<(&'static str, usize)>,
}

impl<A> Outcome<A> {
    /// Render the per-kind transition counts as `kind:count` pairs (suite
    /// output).
    pub fn kinds_summary(&self) -> String {
        let parts: Vec<String> = self.kinds.iter().map(|(k, c)| format!("{k}:{c}")).collect();
        parts.join(" ")
    }
}

/// Exhaustive breadth-first exploration of `h`, checking every invariant
/// in every state, up to `max_states` distinct canonical states.
pub fn bfs<H: Harness>(h: &H, max_states: usize) -> Outcome<H::Action> {
    let initial = h.initial();
    let mut ids: HashMap<Vec<u64>, u32> = HashMap::new();
    // Parent pointers: (parent id, action taken), indexed by state id.
    let mut parents: Vec<Option<(u32, H::Action)>> = Vec::new();
    // Only the unexpanded states are held, each with its id and depth; a
    // state is moved out when it is expanded.
    let mut frontier: VecDeque<(u32, usize, H::State)> = VecDeque::new();
    let mut transitions = 0usize;
    let mut max_depth = 0usize;
    let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();

    if let Err((inv, detail)) = h.check(&initial) {
        return Outcome {
            states: 1,
            transitions: 0,
            depth: 0,
            complete: true,
            violation: Some(Cex {
                invariant: inv,
                detail,
                trace: Vec::new(),
            }),
            kinds: Vec::new(),
        };
    }
    ids.insert(h.canon(&initial), 0);
    parents.push(None);
    frontier.push_back((0, 0, initial));

    let rebuild = |parents: &[Option<(u32, H::Action)>], mut id: u32, last: Option<H::Action>| {
        let mut trace: Vec<H::Action> = Vec::new();
        while let Some((p, a)) = &parents[id as usize] {
            trace.push(a.clone());
            id = *p;
        }
        trace.reverse();
        trace.extend(last);
        trace
    };

    while let Some((id, depth, state)) = frontier.pop_front() {
        for action in h.enabled(&state) {
            transitions += 1;
            *kinds.entry(h.action_kind(&action)).or_insert(0) += 1;
            let next = match h.step(&state, &action) {
                Ok(next) => next,
                Err(detail) => {
                    return Outcome {
                        states: ids.len(),
                        transitions,
                        depth: max_depth.max(depth + 1),
                        complete: false,
                        violation: Some(Cex {
                            invariant: "illegal-transition".to_string(),
                            detail,
                            trace: rebuild(&parents, id, Some(action)),
                        }),
                        kinds: kinds.into_iter().collect(),
                    };
                }
            };
            let key = h.canon(&next);
            if ids.contains_key(&key) {
                continue;
            }
            let next_id = ids.len() as u32;
            ids.insert(key, next_id);
            parents.push(Some((id, action.clone())));
            max_depth = max_depth.max(depth + 1);
            if let Err((inv, detail)) = h.check(&next) {
                return Outcome {
                    states: ids.len(),
                    transitions,
                    depth: max_depth,
                    complete: false,
                    violation: Some(Cex {
                        invariant: inv,
                        detail,
                        trace: rebuild(&parents, next_id, None),
                    }),
                    kinds: kinds.into_iter().collect(),
                };
            }
            frontier.push_back((next_id, depth + 1, next));
            if ids.len() >= max_states {
                return Outcome {
                    states: ids.len(),
                    transitions,
                    depth: max_depth,
                    complete: false,
                    violation: None,
                    kinds: kinds.into_iter().collect(),
                };
            }
        }
    }

    Outcome {
        states: ids.len(),
        transitions,
        depth: max_depth,
        complete: true,
        violation: None,
        kinds: kinds.into_iter().collect(),
    }
}

/// Re-apply a trace on `h` from the initial state, returning the
/// violation it reproduces (`None` if the trace runs clean — which for a
/// checker-produced trace would itself be a bug).
///
/// Every action must be **enabled** where it is applied, exactly as
/// during exploration — `step` alone can be more permissive than
/// `enabled` (it validates preconditions like "page is NUMA-mapped" but
/// not policy guards like "refetch count crossed the threshold"), and
/// accepting such actions would let an edited trace replay where the
/// explorer could never execute it.  A disabled action reports as a
/// distinct `disabled-action` class so it is never confused with a
/// genuine `illegal-transition` counterexample.
pub fn replay_on<H: Harness>(h: &H, trace: &[H::Action]) -> Option<(String, String)> {
    let mut state = h.initial();
    if let Err(v) = h.check(&state) {
        return Some(v);
    }
    for action in trace {
        if !h.enabled(&state).contains(action) {
            return Some((
                "disabled-action".to_string(),
                format!("replayed action not enabled here: {action:?}"),
            ));
        }
        state = match h.step(&state, action) {
            Ok(s) => s,
            Err(detail) => return Some(("illegal-transition".to_string(), detail)),
        };
        if let Err(v) = h.check(&state) {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::Toy;

    #[test]
    fn trivial_config_is_clean_and_complete() {
        let out = bfs(&Toy::clean(2), 1_000);
        assert!(out.violation.is_none(), "violation: {:?}", out.violation);
        assert!(out.complete, "state cap hit on a trivial config");
        assert_eq!(out.states, 16, "two lanes of 0..=3");
        assert_eq!(out.depth, 6);
    }

    #[test]
    fn exploration_is_deterministic() {
        let h = Toy::clean(3);
        let a = bfs(&h, 1_000);
        let b = bfs(&h, 1_000);
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.depth, b.depth);
    }

    #[test]
    fn mutation_counterexample_replays() {
        let h = Toy::seeded();
        let out = bfs(&h, 1_000);
        let cex = out.violation.expect("mutation must be caught");
        assert_eq!(cex.trace.len(), 2, "BFS trace is minimal-depth");
        let replayed = replay_on(&h, &cex.trace).expect("trace must reproduce");
        assert_eq!(replayed.0, cex.invariant);
        // The artifact: a header line, then one balanced JSON object per
        // step.
        let jsonl = cex.to_jsonl(&h);
        assert_eq!(jsonl.lines().count(), cex.trace.len() + 1);
        assert!(jsonl.starts_with("{\"counterexample\":\"toy-bound\""));
        for line in jsonl.lines() {
            assert_eq!(line.matches('"').count() % 2, 0, "unbalanced: {line}");
        }
    }
}
