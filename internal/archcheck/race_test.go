//go:build race

package archcheck

const raceEnabled = true
