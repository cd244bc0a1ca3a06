//! One untraced campaign: `campaign --workload NAME --seed N --run-dir DIR`.

fn main() {
    perfbench::main_with(perfbench::run_untraced);
}
