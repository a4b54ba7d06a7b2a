//! Netlist sanity checks.
//!
//! The builder already guarantees single drivers and define-before-use, so
//! these checks focus on the properties a *generator* can still get wrong:
//! dangling logic, unused inputs, and output bits that were never driven by
//! real logic.

use crate::gate::GateKind;
use crate::netlist::{NetId, Netlist};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A structural problem found by [`Netlist::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckIssue {
    /// A logic cell whose output is not (transitively) observable from any
    /// declared output — usually a generator bug or wasted area.
    DeadLogic {
        /// Number of unobservable cells.
        count: usize,
    },
    /// A declared input bit that no cell reads and no output exposes.
    UnusedInput {
        /// Port name.
        port: String,
        /// Bit index within the port.
        bit: usize,
    },
    /// The netlist declares no outputs at all.
    NoOutputs,
    /// A net that (transitively) depends on its own value. The builder's
    /// define-before-use rule makes this impossible to construct, but
    /// imported Verilog and fault-injected netlists carry no such
    /// guarantee — and simulation silently reads stale values through a
    /// back edge, so cycles must be surfaced structurally.
    CombinationalCycle {
        /// Index of a net on the cycle.
        net: usize,
    },
}

impl fmt::Display for CheckIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckIssue::DeadLogic { count } => {
                write!(f, "{count} logic cells unreachable from outputs")
            }
            CheckIssue::UnusedInput { port, bit } => {
                write!(f, "input bit {port}[{bit}] is never read")
            }
            CheckIssue::NoOutputs => f.write_str("netlist declares no outputs"),
            CheckIssue::CombinationalCycle { net } => {
                write!(f, "combinational cycle through net n{net}")
            }
        }
    }
}

impl Error for CheckIssue {}

impl Netlist {
    /// Runs structural checks, returning all issues found (empty = clean).
    pub fn check(&self) -> Vec<CheckIssue> {
        let mut issues = Vec::new();
        if self.outputs().is_empty() {
            issues.push(CheckIssue::NoOutputs);
        }

        // Combinational cycles: iterative three-color DFS over the net
        // dependency graph (a net depends on its driver's inputs).
        if let Some(net) = self.find_cycle() {
            issues.push(CheckIssue::CombinationalCycle { net });
        }

        // Mark cone of influence of the outputs.
        let mut live = vec![false; self.num_nets()];
        let mut stack: Vec<_> = self
            .outputs()
            .iter()
            .flat_map(|p| p.bits.iter().copied())
            .collect();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut live[n.index()], true) {
                continue;
            }
            let cell = self.driver_of(n);
            for i in 0..cell.kind.arity() {
                stack.push(cell.inputs[i]);
            }
        }
        let dead = self
            .cells()
            .iter()
            .filter(|c| {
                !matches!(
                    c.kind,
                    GateKind::Input | GateKind::Const0 | GateKind::Const1
                ) && !live[c.output.index()]
            })
            .count();
        if dead > 0 {
            issues.push(CheckIssue::DeadLogic { count: dead });
        }

        // Unused inputs.
        let mut read: HashSet<usize> = HashSet::new();
        for c in self.cells() {
            for i in 0..c.kind.arity() {
                read.insert(c.inputs[i].index());
            }
        }
        for p in self.outputs() {
            for b in &p.bits {
                read.insert(b.index());
            }
        }
        for p in self.inputs() {
            for (bit, b) in p.bits.iter().enumerate() {
                if !read.contains(&b.index()) {
                    issues.push(CheckIssue::UnusedInput {
                        port: p.name.clone(),
                        bit,
                    });
                }
            }
        }
        issues
    }

    /// Returns a net on a combinational cycle, if one exists.
    pub(crate) fn find_cycle(&self) -> Option<usize> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; self.num_nets()];
        for root in 0..self.num_nets() {
            if color[root] != WHITE {
                continue;
            }
            // Frames of (net, next input pin to visit).
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            color[root] = GRAY;
            while let Some(frame) = stack.last_mut() {
                let (net, pin) = *frame;
                let cell = self.driver_of(NetId(net as u32));
                if pin < cell.kind.arity() {
                    frame.1 += 1;
                    let child = cell.inputs[pin].index();
                    match color[child] {
                        WHITE => {
                            color[child] = GRAY;
                            stack.push((child, 0));
                        }
                        GRAY => return Some(child),
                        _ => {}
                    }
                } else {
                    color[net] = BLACK;
                    stack.pop();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_netlist_has_no_issues() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a", 2);
        let x = n.and(a[0], a[1]);
        n.add_output("o", vec![x]);
        assert!(n.check().is_empty());
    }

    #[test]
    fn detects_dead_logic_and_unused_inputs() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a", 2);
        let _dead = n.xor(a[0], a[0]);
        n.add_output("o", vec![a[0]]);
        let issues = n.check();
        assert!(issues
            .iter()
            .any(|i| matches!(i, CheckIssue::DeadLogic { count: 1 })));
        assert!(issues
            .iter()
            .any(|i| matches!(i, CheckIssue::UnusedInput { bit: 1, .. })));
    }

    #[test]
    fn detects_a_combinational_cycle() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a", 1);
        let x = n.and(a[0], a[0]);
        let y = n.or(x, a[0]);
        n.add_output("o", vec![y]);
        assert!(n.check().is_empty());
        // Rewire the AND to read the OR's output: x → y → x.
        let x_cell = n
            .cells()
            .iter()
            .position(|c| c.output == x)
            .expect("x has a driver");
        n.inject_cell_input(x_cell, 1, y);
        let issues = n.check();
        assert!(
            issues
                .iter()
                .any(|i| matches!(i, CheckIssue::CombinationalCycle { .. })),
            "{issues:?}"
        );
    }

    #[test]
    fn detects_missing_outputs() {
        let mut n = Netlist::new("t");
        n.add_input("a", 1);
        assert!(n.check().contains(&CheckIssue::NoOutputs));
    }
}
