//! The engines' unit-test fixture: a harness small enough to reason
//! about by hand.
//!
//! [`Toy`] is `lanes` independent counters, each counting 0..=3 with a
//! progress `Inc`, so BFS reaches all `4^lanes` states.  Two optional
//! extras:
//!
//! * `with_cycle` adds a non-progress `Hop` (1 -> 2) and `Back` (2 -> 1)
//!   on every lane — a livelock lasso for [`crate::liveness`];
//! * `bad_at` seeds a violation: the last lane reaching that value trips
//!   `toy-bound`.

use crate::harness::Harness;

/// Highest value a lane counts to.
const TOP: u8 = 3;

pub(crate) struct Toy {
    pub lanes: u8,
    pub with_cycle: bool,
    pub bad_at: Option<u8>,
}

impl Toy {
    /// `lanes` plain counters: clean, acyclic.
    pub fn clean(lanes: u8) -> Toy {
        Toy {
            lanes,
            with_cycle: false,
            bad_at: None,
        }
    }

    /// Two lanes, with the second lane's reaching 2 a violation.
    pub fn seeded() -> Toy {
        Toy {
            bad_at: Some(2),
            ..Toy::clean(2)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ToyAction {
    Inc(u8),
    Hop(u8),
    Back(u8),
}

impl ToyAction {
    fn lane(self) -> u8 {
        match self {
            ToyAction::Inc(l) | ToyAction::Hop(l) | ToyAction::Back(l) => l,
        }
    }
}

impl Harness for Toy {
    type State = Vec<u8>;
    type Action = ToyAction;

    fn initial(&self) -> Vec<u8> {
        vec![0; self.lanes as usize]
    }

    fn enabled(&self, s: &Vec<u8>) -> Vec<ToyAction> {
        let mut acts = Vec::new();
        for (l, &v) in s.iter().enumerate() {
            let l = l as u8;
            if v < TOP {
                acts.push(ToyAction::Inc(l));
            }
            if self.with_cycle && v == 1 {
                acts.push(ToyAction::Hop(l));
            }
            if self.with_cycle && v == 2 {
                acts.push(ToyAction::Back(l));
            }
        }
        acts
    }

    fn step(&self, s: &Vec<u8>, a: &ToyAction) -> Result<Vec<u8>, String> {
        let mut t = s.clone();
        let v = &mut t[a.lane() as usize];
        *v = match a {
            ToyAction::Inc(_) => *v + 1,
            ToyAction::Hop(_) => 2,
            ToyAction::Back(_) => 1,
        };
        Ok(t)
    }

    fn check(&self, s: &Vec<u8>) -> Result<(), (String, String)> {
        match (self.bad_at, s.last()) {
            (Some(bad), Some(&v)) if v >= bad => Err((
                "toy-bound".to_string(),
                format!("lane {} reached {v}", s.len() - 1),
            )),
            _ => Ok(()),
        }
    }

    fn canon(&self, s: &Vec<u8>) -> Vec<u64> {
        s.iter().map(|&v| v as u64).collect()
    }

    fn is_progress(&self, a: &ToyAction) -> bool {
        matches!(a, ToyAction::Inc(_))
    }

    fn action_json(&self, a: &ToyAction, step: usize) -> String {
        format!("{{\"step\":{step},\"action\":\"{a:?}\"}}")
    }
}
