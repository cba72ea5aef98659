//! `ds2-bench`: the paper's experiments and the scenario matrix behind one
//! command line; see [`ds2_bench::cli`] for the subcommands.

fn main() {
    ds2_bench::cli::run(std::env::args().skip(1).collect());
}
