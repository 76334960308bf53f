//! Runs Section 4.1's thought experiment: the Pentium 4 die-shrunk across
//! four generations to 32nm, measured alongside the real chip.

use lhr_bench::Fidelity;
use lhr_core::experiments::retrospective;

fn main() {
    lhr_bench::check_args("retrospective", &[lhr_bench::FIDELITY_FLAGS]);
    let harness = Fidelity::from_args().harness();
    let r = retrospective::run(&harness);
    println!("{}", retrospective::render(&r));
}
