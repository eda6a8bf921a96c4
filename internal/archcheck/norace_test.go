//go:build !race

package archcheck

const raceEnabled = false
