package runner

// Internals the external-package engine tests (fleet_test.go) share with
// the in-package suite.
var (
	TestConfig  = testConfig
	Fingerprint = fingerprint
	DayDir      = dayDir
)

const StatsFile = statsFile
