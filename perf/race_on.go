//go:build race

package main

// raceEnabled reports that the binary was built with -race; the benchmark
// refuses to measure then.
const raceEnabled = true
