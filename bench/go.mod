// The benchmark is a module of its own (BENCHMARK.json contract: a compiled
// benchmark carries its own build file). Its path sits under predstream/ so
// that it may import predstream/internal/...; the replace points at the
// checkout it is measuring.
module predstream/bench

go 1.22

require predstream v0.0.0

replace predstream => ../
