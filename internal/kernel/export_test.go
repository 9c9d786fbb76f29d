package kernel

// Test-only exports for the external kernel_test package.
var (
	BenchSizes = benchSizes
	FillCounts = fillCounts
)
