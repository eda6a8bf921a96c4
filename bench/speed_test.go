package main

import (
	"testing"
	"time"
)

// TestSlowdownWindows: the slowdown of a phase is the median reference
// sample inside it over the nominal one, and a phase too short to hold three
// samples falls back to the whole run.
func TestSlowdownWindows(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	m := &speedometer{}
	for i, us := range []float64{150, 150, 150, 300, 310, 290, 150} {
		m.at, m.us = append(m.at, at(20*i)), append(m.us, us)
	}
	for _, c := range []struct {
		name     string
		from, to time.Time
		want     float64
	}{
		{"quiet phase", at(0), at(60), 1},
		{"slow phase", at(60), at(120), 2},
		{"too short, whole run", at(60), at(80), 1},
	} {
		if got := m.slowdown(c.from, c.to); got != c.want {
			t.Errorf("%s: slowdown %v, want %v", c.name, got, c.want)
		}
	}
	if got := (&speedometer{}).slowdown(at(0), at(100)); got != 1 {
		t.Errorf("no samples: slowdown %v, want 1", got)
	}
}

// TestSpeedometerSamples: a started speedometer takes samples and stops.
func TestSpeedometerSamples(t *testing.T) {
	m := startSpeedometer()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		m.mu.Lock()
		n := len(m.us)
		m.mu.Unlock()
		if n > 0 {
			break
		}
	}
	m.Close()
	if len(m.us) == 0 || len(m.us) != len(m.at) {
		t.Fatalf("%d samples at %d times", len(m.us), len(m.at))
	}
	for _, us := range m.us {
		if us <= 0 {
			t.Errorf("reference kernel took %v us", us)
		}
	}
}
