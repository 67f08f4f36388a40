//go:build race

package experiments

// raceEnabled reports whether the test binary runs under the race
// detector; tests too slow there skip.
const raceEnabled = true
