package main

import (
	"bytes"
	"encoding/gob"
	"sync"
	"time"
)

// The sandbox this benchmark is sized for shares its cores with other
// tenants: for minutes at a time everything in the process runs about 1.5×
// slower, and the state flips a few times in a quarter of an hour — more
// than any bound a regression gate could use (README.md has the
// measurements). Longer runs or medians inside a run do not help against a
// state that outlasts the run. So every run carries a speedometer: a fixed
// reference kernel that no change to the repository can alter (a gob round
// trip of a constant frame — standard library only, and the instruction mix
// nearest to this system's own of the kernels tried), sampled every few
// milliseconds beside the workload. The time metrics are divided by how much
// slower than nominal the kernel ran during the phase they measure, which
// makes them times on a machine of nominal speed: comparable between runs
// made minutes apart. The raw figures are kept as diagnostics.

// referenceNominalUs is the reference kernel's usual median on the box the
// benchmark was sized on, under the workloads' own load.
const referenceNominalUs = 150

const speedSamplePeriod = 20 * time.Millisecond

// referenceFrame has the shape of an update frame: an id, a token map, a few
// dozen short encodings and some kilobytes of ciphertext.
type referenceFrame struct {
	ID         string
	Tokens     map[string]int
	Encodings  [][]byte
	Ciphertext []byte
}

func newReferenceFrame() *referenceFrame {
	f := &referenceFrame{ID: "reference", Tokens: make(map[string]int), Ciphertext: make([]byte, 7000)}
	for i := 0; i < 40; i++ {
		f.Tokens[string([]byte{byte('a' + i%26), byte('a' + i/26)})] = i
	}
	for i := 0; i < 29; i++ {
		f.Encodings = append(f.Encodings, make([]byte, 256))
	}
	return f
}

// referenceKernel encodes and decodes the frame once and returns how long
// that took, in microseconds.
func referenceKernel(f *referenceFrame) float64 {
	start := time.Now()
	var buf bytes.Buffer
	var back referenceFrame
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		panic(err) // a constant value of encodable types
	}
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		panic(err)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3
}

// speedometer samples the reference kernel on its own goroutine from start
// until Close.
type speedometer struct {
	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	at []time.Time
	us []float64
}

func startSpeedometer() *speedometer {
	m := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		frame := newReferenceFrame()
		tick := time.NewTicker(speedSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case now := <-tick.C:
				us := referenceKernel(frame)
				m.mu.Lock()
				m.at, m.us = append(m.at, now), append(m.us, us)
				m.mu.Unlock()
			}
		}
	}()
	return m
}

func (m *speedometer) Close() {
	close(m.stop)
	<-m.done
}

// slowdown is how much slower than nominal the machine ran between from and
// to: the median reference sample of that window over the nominal one. A
// window too short to hold three samples (the unit tests' runs) takes all of
// the run's samples; with none at all the answer is 1.
func (m *speedometer) slowdown(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var window []float64
	for i, at := range m.at {
		if !at.Before(from) && at.Before(to) {
			window = append(window, m.us[i])
		}
	}
	if len(window) < 3 {
		window = m.us
	}
	if len(window) == 0 {
		return 1
	}
	return medianOf(window) / referenceNominalUs
}
