// Package experiments contains one harness per table/figure of the paper's
// evaluation (§4.3, §5). Each harness returns the numbers behind the
// artifact and knows how to print them in a gnuplot/CSV-friendly layout;
// the top-level benchmarks and the cmd/simctl binary are thin wrappers
// around these functions. The per-experiment index lives in
// DESIGN.md §4; paper-vs-measured outcomes are recorded in EXPERIMENTS.md.
package experiments
