//go:build race

package whatif

// raceEnabled gates byte-count floors: the race detector drops
// sync.Pool items at random, so recycled bucket queues are allocated
// again and a question's bytes vary from run to run.
const raceEnabled = true
