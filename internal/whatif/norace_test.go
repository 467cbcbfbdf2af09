//go:build !race

package whatif

const raceEnabled = false
