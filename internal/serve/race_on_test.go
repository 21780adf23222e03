//go:build race

package serve

// raceEnabled reports that the race detector is compiled in. Under it
// sync.Pool drops a random quarter of what is Put, so net/http's pooled
// readers and writers make a proxied request's allocation count a random
// variable; budgets on that count skip on this constant — something the
// build observes, never an environment variable.
const raceEnabled = true
