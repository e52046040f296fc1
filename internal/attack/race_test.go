//go:build race

package attack

func init() { raceEnabled = true }
