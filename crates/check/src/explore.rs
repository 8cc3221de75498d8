//! Exploration engines over any [`Harness`]: exhaustive BFS and a
//! dynamic partial-order-reduced DFS.
//!
//! **BFS** ([`bfs`]) visits every reachable canonical state, so the first
//! violation found is at minimal depth and the parent chain reconstructs
//! a minimal counterexample trace.  It is the soundness anchor: slower,
//! but with no reduction assumptions.
//!
//! **DPOR** ([`dpor`]) is a stateless-style depth-first search with
//! *persistent sets* and *sleep sets* (Flanagan–Godefroid), plus
//! canonical-state caching.  From each state it explores only a
//! dependency-closed subset of the enabled actions — commuting
//! interleavings are represented by a single order — so the visited
//! state count is a (often dramatic) subset of BFS.  The reduction
//! leans on the harness's conservative static [`Harness::dependent`]
//! relation; the conformance gate runs BFS and DPOR side by side on
//! every configuration and asserts they agree on the presence of
//! violations (see DESIGN.md §15 for the soundness discussion).

use crate::harness::Harness;
use std::collections::{BTreeMap, HashMap};

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
    /// Maximum depth reached (BFS level / DFS stack depth).
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

/// Flatten a kind tally into the sorted pair list [`Outcome::kinds`]
/// carries.
fn kind_counts(tally: BTreeMap<&'static str, usize>) -> Vec<(&'static str, usize)> {
    tally.into_iter().collect()
}

/// Exhaustive breadth-first exploration of `h`, checking every invariant
/// in every state, up to `max_states` distinct canonical states.
pub fn bfs<H: Harness>(h: &H, max_states: usize) -> Outcome<H::Action> {
    let initial = h.initial();
    let mut ids: HashMap<Vec<u64>, u32> = HashMap::new();
    // Parent pointers: (parent id, action taken), indexed by state id.
    let mut parents: Vec<Option<(u32, H::Action)>> = Vec::new();
    let mut depths: Vec<usize> = Vec::new();
    let mut frontier: Vec<u32> = Vec::new();
    let mut states_by_id: Vec<H::State> = Vec::new();
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
    depths.push(0);
    states_by_id.push(initial);
    frontier.push(0);

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

    let mut cursor = 0usize;
    while cursor < frontier.len() {
        let id = frontier[cursor];
        cursor += 1;
        let depth = depths[id as usize];
        let state = states_by_id[id as usize].clone();
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
                        kinds: kind_counts(kinds),
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
            depths.push(depth + 1);
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
                    kinds: kind_counts(kinds),
                };
            }
            states_by_id.push(next);
            frontier.push(next_id);
            if ids.len() >= max_states {
                return Outcome {
                    states: ids.len(),
                    transitions,
                    depth: max_depth,
                    complete: false,
                    violation: None,
                    kinds: kind_counts(kinds),
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
        kinds: kind_counts(kinds),
    }
}

/// Pick a persistent set from `enabled`: for each seed action, close it
/// under the harness's dependence relation (restricted to the enabled
/// set) and keep the smallest closure.  Order within the closure follows
/// the deterministic `enabled` order, so exploration is reproducible.
fn persistent_set<H: Harness>(h: &H, enabled: &[H::Action]) -> Vec<H::Action> {
    if enabled.len() <= 1 {
        return enabled.to_vec();
    }
    let mut best: Option<Vec<usize>> = None;
    for seed in 0..enabled.len() {
        let mut closure = vec![seed];
        let mut member = vec![false; enabled.len()];
        member[seed] = true;
        loop {
            let mut grew = false;
            for (i, a) in enabled.iter().enumerate() {
                if member[i] {
                    continue;
                }
                if closure.iter().any(|&c| h.dependent(a, &enabled[c])) {
                    member[i] = true;
                    closure.push(i);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        if best.as_ref().map_or(true, |b| closure.len() < b.len()) {
            closure.sort_unstable();
            best = Some(closure);
        }
        // A singleton closure cannot be beaten.
        if best.as_ref().is_some_and(|b| b.len() == 1) {
            break;
        }
    }
    best.unwrap_or_default()
        .into_iter()
        .map(|i| enabled[i].clone())
        .collect()
}

/// One DFS frame of the DPOR search.
struct Frame<S, A> {
    state: S,
    /// The persistent set chosen at this state, in deterministic order.
    actions: Vec<A>,
    /// Next index into `actions` to explore.
    next: usize,
    /// Sleep set: actions whose exploration from this state is provably
    /// redundant (inherited from the parent, grown with explored
    /// siblings).
    sleep: Vec<A>,
}

/// Depth-first exploration of `h` with dynamic partial-order reduction
/// (persistent sets + sleep sets) and canonical-state caching.
///
/// Explores a subset of the states [`bfs`] visits while — under the
/// harness's dependence relation — preserving the reachability of every
/// invariant violation.  Counterexample traces are *not* minimal-depth;
/// shrink them with [`crate::shrink::shrink`] before writing artifacts.
pub fn dpor<H: Harness>(h: &H, max_states: usize) -> Outcome<H::Action> {
    let initial = h.initial();
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
    let mut ids: HashMap<Vec<u64>, u32> = HashMap::new();
    ids.insert(h.canon(&initial), 0);

    let first = h.enabled(&initial);
    let mut stack: Vec<Frame<H::State, H::Action>> = vec![Frame {
        actions: persistent_set(h, &first),
        state: initial,
        next: 0,
        sleep: Vec::new(),
    }];
    // Actions taken along the current DFS path: path[i] leads from
    // stack[i] to stack[i + 1].
    let mut path: Vec<H::Action> = Vec::new();

    let cex_trace = |path: &[H::Action], last: &H::Action| {
        let mut t = path.to_vec();
        t.push(last.clone());
        t
    };

    while let Some(top) = stack.last_mut() {
        if top.next >= top.actions.len() {
            stack.pop();
            path.pop();
            continue;
        }
        let action = top.actions[top.next].clone();
        top.next += 1;
        // Sleep-set cut: some already-explored interleaving covers every
        // behavior reachable by taking `action` here.
        if top.sleep.contains(&action) {
            continue;
        }
        transitions += 1;
        *kinds.entry(h.action_kind(&action)).or_insert(0) += 1;
        let next = match h.step(&top.state, &action) {
            Ok(next) => next,
            Err(detail) => {
                return Outcome {
                    states: ids.len(),
                    transitions,
                    depth: max_depth.max(path.len() + 1),
                    complete: false,
                    violation: Some(Cex {
                        invariant: "illegal-transition".to_string(),
                        detail,
                        trace: cex_trace(&path, &action),
                    }),
                    kinds: kind_counts(kinds),
                };
            }
        };
        // The child inherits every sleeping / already-explored sibling
        // that commutes with `action`; then `action` itself goes to
        // sleep for the remaining siblings.
        let child_sleep: Vec<H::Action> = top
            .sleep
            .iter()
            .filter(|b| *b != &action && !h.dependent(b, &action))
            .cloned()
            .collect();
        top.sleep.push(action.clone());

        let key = h.canon(&next);
        if ids.contains_key(&key) {
            continue;
        }
        let next_id = ids.len() as u32;
        ids.insert(key, next_id);
        if let Err((inv, detail)) = h.check(&next) {
            return Outcome {
                states: ids.len(),
                transitions,
                depth: max_depth.max(path.len() + 1),
                complete: false,
                violation: Some(Cex {
                    invariant: inv,
                    detail,
                    trace: cex_trace(&path, &action),
                }),
                kinds: kind_counts(kinds),
            };
        }
        if ids.len() >= max_states {
            return Outcome {
                states: ids.len(),
                transitions,
                depth: max_depth,
                complete: false,
                violation: None,
                kinds: kind_counts(kinds),
            };
        }
        let enabled = h.enabled(&next);
        path.push(action);
        max_depth = max_depth.max(path.len());
        stack.push(Frame {
            actions: persistent_set(h, &enabled),
            state: next,
            next: 0,
            sleep: child_sleep,
        });
    }

    Outcome {
        states: ids.len(),
        transitions,
        depth: max_depth,
        complete: true,
        violation: None,
        kinds: kind_counts(kinds),
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
/// accepting such actions would let the shrinker manufacture traces the
/// explorer could never execute.  A disabled action reports as a
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
        for engine in [bfs::<Toy>, dpor::<Toy>] {
            let a = engine(&h, 1_000);
            let b = engine(&h, 1_000);
            assert_eq!(a.states, b.states);
            assert_eq!(a.transitions, b.transitions);
            assert_eq!(a.depth, b.depth);
        }
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

    #[test]
    fn dpor_visits_a_subset_and_agrees_on_cleanliness() {
        let h = Toy::clean(2);
        let full = bfs(&h, 1_000);
        let reduced = dpor(&h, 1_000);
        assert!(full.complete && reduced.complete);
        assert!(full.violation.is_none());
        assert!(reduced.violation.is_none());
        assert!(
            reduced.states < full.states,
            "DPOR must reduce: {} vs BFS {}",
            reduced.states,
            full.states
        );
        // Lanes commute, so one order survives: lane 0 to 3, then lane 1.
        assert_eq!(reduced.states, 7);
    }

    #[test]
    fn dpor_finds_the_seeded_mutation() {
        let h = Toy::seeded();
        let out = dpor(&h, 1_000);
        let cex = out.violation.expect("DPOR must catch the mutation");
        let replayed = replay_on(&h, &cex.trace).expect("trace must reproduce");
        assert_eq!(replayed.0, cex.invariant);
    }
}
