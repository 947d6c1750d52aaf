package workload

// BenchParams returns the graded random-SCSP instance grid that
// cmd/softsoa-bench solves to measure search throughput: instances
// vary variables, domain size and density, with
// fixed seeds so every run (and every machine) solves the same
// problems. short selects the subset small enough for CI.
func BenchParams(short bool) []SCSPParams {
	grid := []SCSPParams{
		{Vars: 8, DomainSize: 3, Density: 0.4, Tightness: 0.7, Seed: 101},
		{Vars: 10, DomainSize: 3, Density: 0.4, Tightness: 0.7, Seed: 102},
	}
	if !short {
		grid = append(grid,
			SCSPParams{Vars: 12, DomainSize: 3, Density: 0.3, Tightness: 0.8, Seed: 103},
			SCSPParams{Vars: 10, DomainSize: 4, Density: 0.5, Tightness: 0.8, Seed: 104},
			SCSPParams{Vars: 12, DomainSize: 4, Density: 0.5, Tightness: 0.9, Seed: 105},
		)
	}
	return grid
}
