//! Regenerates the ablation studies: the VM-service attribution for
//! Workload Finding 1 and the JVM-vendor power sensitivity of Section 2.2.

use lhr_bench::Fidelity;
use lhr_core::experiments::ablation;

fn main() {
    lhr_bench::check_args("ablations", &[lhr_bench::FIDELITY_FLAGS]);
    let harness = Fidelity::from_args().harness();
    let services = ablation::jvm_service_ablation(
        &harness,
        &["antlr", "db", "luindex", "fop", "jess", "compress"],
    );
    let vendors = ablation::vm_vendor_comparison(&harness, &["jess", "db", "sunflow", "xalan"]);
    println!("{}", ablation::render(&services, &vendors));
}
