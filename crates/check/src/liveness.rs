//! Liveness checking via lasso detection.
//!
//! A safety explorer proves "nothing bad is reachable"; it cannot prove
//! "the system keeps making progress".  The failure mode that matters
//! for AS-COMA is *livelock*: the relocation machinery (remap, evict,
//! pageout daemon) cycling forever while no application operation
//! completes — exactly what the paper's back-off exists to prevent, and
//! exactly what breaks if `Directory::reset_refetch` is skipped (a page
//! keeps "deserving" relocation the instant it is evicted).
//!
//! [`find_lasso`] enumerates the full reachable graph (BFS, recording
//! every edge), then searches the subgraph of **non-progress** edges
//! ([`Harness::is_progress`] `== false`) for a cycle.  A cycle of
//! non-progress actions reachable from the initial state is a *lasso*:
//! a finite stem followed by an infinitely repeatable loop in which the
//! application never advances.  The absence of such a cycle over the
//! complete state space is a proof of livelock freedom for that
//! configuration.

use crate::harness::Harness;
use std::collections::{HashMap, VecDeque};

/// A livelock witness: run the `stem` from the initial state, then the
/// `cycle` repeats forever without any application progress.
#[derive(Debug, Clone)]
pub struct Lasso<A> {
    /// Actions from the initial state to the cycle entry state.
    pub stem: Vec<A>,
    /// Non-progress actions returning to the cycle entry state.
    pub cycle: Vec<A>,
}

/// What a liveness search covered and found.
#[derive(Debug, Clone)]
pub struct LivenessOutcome<A> {
    /// Distinct reachable canonical states visited.
    pub states: usize,
    /// Transitions applied.
    pub transitions: usize,
    /// Whether the full reachable space was covered (false: cap hit —
    /// the absence of a lasso then proves nothing).
    pub complete: bool,
    /// A livelock witness, if one exists.
    pub lasso: Option<Lasso<A>>,
    /// States satisfying the caller's predicate (coverage evidence: a
    /// "no livelock at max back-off" claim is vacuous unless latched
    /// states were actually explored).
    pub interesting: usize,
}

/// Exhaustively explore `h` and search for a non-progress lasso.
///
/// `interesting` is a coverage predicate counted across all explored
/// states (e.g. "back-off latched relocation off") so gates can assert
/// the proof covered the regime they care about.  Invariants are *not*
/// checked here — run the safety explorer on the same configuration
/// first.  `Err` means a transition was illegal, which safety checking
/// should already have caught.
pub fn find_lasso<H: Harness>(
    h: &H,
    max_states: usize,
    interesting: impl Fn(&H::State) -> bool,
) -> Result<LivenessOutcome<H::Action>, String> {
    let initial = h.initial();
    let mut ids: HashMap<Vec<u64>, u32> = HashMap::new();
    // Only the unexpanded states are held; a state is moved out when it
    // is expanded.
    let mut frontier: VecDeque<(u32, H::State)> = VecDeque::new();
    let mut parents: Vec<Option<(u32, H::Action)>> = Vec::new();
    // Non-progress edges only: (action, destination) per source state.
    let mut np_edges: Vec<Vec<(H::Action, u32)>> = Vec::new();
    let mut transitions = 0usize;
    let mut complete = true;
    let mut interesting_count = 0usize;

    ids.insert(h.canon(&initial), 0);
    if interesting(&initial) {
        interesting_count += 1;
    }
    frontier.push_back((0, initial));
    parents.push(None);
    np_edges.push(Vec::new());

    'bfs: while let Some((id, state)) = frontier.pop_front() {
        for action in h.enabled(&state) {
            transitions += 1;
            let next = h
                .step(&state, &action)
                .map_err(|e| format!("illegal transition during liveness search: {e}"))?;
            let key = h.canon(&next);
            let next_id = match ids.get(&key) {
                Some(&known) => known,
                None => {
                    let next_id = ids.len() as u32;
                    ids.insert(key, next_id);
                    if interesting(&next) {
                        interesting_count += 1;
                    }
                    frontier.push_back((next_id, next));
                    parents.push(Some((id, action.clone())));
                    np_edges.push(Vec::new());
                    next_id
                }
            };
            if !h.is_progress(&action) {
                np_edges[id as usize].push((action.clone(), next_id));
            }
            if ids.len() >= max_states {
                complete = false;
                break 'bfs;
            }
        }
    }

    let lasso = find_np_cycle::<H>(&np_edges).map(|(entry, cycle)| {
        // Stem: the BFS parent chain from the initial state to the
        // cycle's entry point.
        let mut stem: Vec<H::Action> = Vec::new();
        let mut at = entry;
        while let Some((p, a)) = &parents[at as usize] {
            stem.push(a.clone());
            at = *p;
        }
        stem.reverse();
        Lasso { stem, cycle }
    });

    Ok(LivenessOutcome {
        states: ids.len(),
        transitions,
        complete,
        lasso,
        interesting: interesting_count,
    })
}

/// Find a cycle in the non-progress edge subgraph via iterative
/// color-DFS.  Returns the cycle entry state id and the action sequence
/// around the cycle.
fn find_np_cycle<H: Harness>(np_edges: &[Vec<(H::Action, u32)>]) -> Option<(u32, Vec<H::Action>)> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; np_edges.len()];
    for root in 0..np_edges.len() as u32 {
        if color[root as usize] != WHITE {
            continue;
        }
        // (state id, next edge index); path_act[i] is the action from
        // stack[i] to stack[i + 1].
        let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
        let mut path_act: Vec<H::Action> = Vec::new();
        color[root as usize] = GRAY;
        while let Some(&mut (node, ref mut ei)) = stack.last_mut() {
            if let Some((a, to)) = np_edges[node as usize].get(*ei) {
                *ei += 1;
                let to = *to;
                if color[to as usize] == GRAY {
                    // Back edge: the cycle runs from `to`'s position on
                    // the stack around to `node`, then back via `a`.
                    let pos = stack
                        .iter()
                        .position(|&(n, _)| n == to)
                        .expect("gray state must be on the DFS stack");
                    let mut cycle: Vec<H::Action> = path_act[pos..].to_vec();
                    cycle.push(a.clone());
                    return Some((to, cycle));
                }
                if color[to as usize] == WHITE {
                    color[to as usize] = GRAY;
                    stack.push((to, 0));
                    path_act.push(a.clone());
                }
            } else {
                color[node as usize] = BLACK;
                stack.pop();
                path_act.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{Toy, ToyAction};

    #[test]
    fn acyclic_progress_graph_has_no_lasso() {
        let out = find_lasso(&Toy::clean(1), 1_000, |_| true).unwrap();
        assert!(out.complete);
        assert!(out.lasso.is_none());
        assert_eq!(out.states, 4);
        assert_eq!(out.interesting, 4);
    }

    #[test]
    fn non_progress_cycle_is_found_with_stem() {
        let h = Toy {
            with_cycle: true,
            ..Toy::clean(1)
        };
        let out = find_lasso(&h, 1_000, |s| s[0] == 2).unwrap();
        assert!(out.complete);
        let lasso = out.lasso.expect("cycle must be found");
        assert!(!lasso.cycle.is_empty());
        // The cycle is non-progress only.
        assert!(lasso
            .cycle
            .iter()
            .all(|a| matches!(a, ToyAction::Hop(_) | ToyAction::Back(_))));
        // Replaying stem + cycle returns to the cycle entry state.
        let mut s = h.initial();
        for a in &lasso.stem {
            s = h.step(&s, a).unwrap();
        }
        let entry = s.clone();
        for a in &lasso.cycle {
            s = h.step(&s, a).unwrap();
        }
        assert_eq!(s, entry, "cycle must return to its entry state");
        assert!(out.interesting >= 1);
    }
}
