// Package device models the client devices and link characteristics of the
// paper's test bench (§VII): a 2013 Nexus 7 tablet on WiFi, a MacBook Pro on
// 100 Mb/s ethernet, and an EC2 m3.large server 52.16 ms away. The
// experiments in the paper report wall-clock time and battery drain on real
// hardware; this reproduction runs the same computations on one machine and
// converts measured work into per-device time and energy through these
// profiles. Relative orderings and ratios across schemes — what the figures
// actually demonstrate — are preserved by construction.
//
// A Meter accumulates cost per sub-operation category (Encrypt, Network,
// Index, Train), the exact breakdown of Figures 2–5, and integrates energy
// the way Android's power-profile framework does for Figure 6:
// mAh = Σ (P_rail · t_rail) / V.
package device

import (
	"fmt"
	"sync"
	"time"
)

// Category labels a sub-operation in the figures' cost breakdown.
type Category int

// Sub-operation categories, matching the figure legends.
const (
	Encrypt Category = iota + 1
	Network
	Index
	Train
)

var categoryNames = map[Category]string{
	Encrypt: "Encrypt",
	Network: "Network",
	Index:   "Index",
	Train:   "Train",
}

// String returns the figure-legend name of the category.
func (c Category) String() string {
	if n, ok := categoryNames[c]; ok {
		return n
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Profile describes one device.
type Profile struct {
	Name string
	// CPUFactor scales CPU time measured on the reference (benchmark)
	// machine to this device. The desktop profile is the 1.0 reference;
	// the paper observes mobile CPU work ~1 order of magnitude slower.
	CPUFactor float64
	// UplinkMbps / DownlinkMbps model the access link.
	UplinkMbps   float64
	DownlinkMbps float64
	// RTT is the client<->cloud round-trip time.
	RTT time.Duration
	// BatteryCapacityMAh is the device battery (0 for mains-powered).
	BatteryCapacityMAh float64
	// CPUPowerW / RadioPowerW are the active power draws of the SoC and
	// radio rails; VoltageV converts watt-hours into mAh.
	CPUPowerW   float64
	RadioPowerW float64
	VoltageV    float64
}

// The paper's three machines.
var (
	// Mobile models the 2013 Nexus 7 (Snapdragon S4 Pro, WiFi 802.11g,
	// 3448 mAh battery measured in §VII-E, 3.8 V pack).
	Mobile = Profile{
		Name:               "mobile-nexus7",
		CPUFactor:          10,
		UplinkMbps:         20,
		DownlinkMbps:       20,
		RTT:                52160 * time.Microsecond,
		BatteryCapacityMAh: 3448,
		CPUPowerW:          2.2,
		RadioPowerW:        0.8,
		VoltageV:           3.8,
	}
	// Desktop models the MacBook Pro client on 100 Mb/s ethernet.
	Desktop = Profile{
		Name:         "desktop-macbook",
		CPUFactor:    1,
		UplinkMbps:   100,
		DownlinkMbps: 100,
		RTT:          52160 * time.Microsecond,
		CPUPowerW:    35,
		VoltageV:     12,
	}
)

// Meter accumulates per-category device time. CPU time is scaled by the
// profile's CPUFactor; network time is derived from bytes moved and round
// trips taken. Meters are safe for concurrent use.
type Meter struct {
	profile Profile

	mu      sync.Mutex
	cpu     map[Category]time.Duration // already scaled to the device
	net     map[Category]time.Duration
	bytesUp map[Category]int64
	bytesDn map[Category]int64
	trips   map[Category]int
}

// NewMeter creates a Meter for the given device profile.
func NewMeter(p Profile) *Meter {
	return &Meter{
		profile: p,
		cpu:     make(map[Category]time.Duration),
		net:     make(map[Category]time.Duration),
		bytesUp: make(map[Category]int64),
		bytesDn: make(map[Category]int64),
		trips:   make(map[Category]int),
	}
}

// AddCPU records CPU work measured on the reference machine; it is scaled
// to the device by CPUFactor.
func (m *Meter) AddCPU(cat Category, measured time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cpu[cat] += time.Duration(float64(measured) * m.profile.CPUFactor)
}

// TimeCPU runs fn, measuring its duration as device CPU work in cat.
func (m *Meter) TimeCPU(cat Category, fn func()) {
	start := time.Now()
	fn()
	m.AddCPU(cat, time.Since(start))
}

// AddTransfer records an upload/download of the given sizes plus one round
// trip, converting to link time through the profile.
func (m *Meter) AddTransfer(cat Category, upBytes, downBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var d time.Duration
	if m.profile.UplinkMbps > 0 {
		d += time.Duration(float64(upBytes) * 8 / (m.profile.UplinkMbps * 1e6) * float64(time.Second))
	}
	if m.profile.DownlinkMbps > 0 {
		d += time.Duration(float64(downBytes) * 8 / (m.profile.DownlinkMbps * 1e6) * float64(time.Second))
	}
	m.net[cat] += d + m.profile.RTT
	m.bytesUp[cat] += upBytes
	m.bytesDn[cat] += downBytes
	m.trips[cat]++
}

// AddServerTime records time spent waiting on the cloud (server-side
// processing within a synchronous call). It lands in the network bucket and
// is NOT scaled by CPUFactor — the server is the same machine regardless of
// which client device is measuring (Figure 5's Network sub-operation
// includes server response time).
func (m *Meter) AddServerTime(cat Category, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.net[cat] += d
}

// CategoryEnergyMAh integrates battery drain for a single category, letting
// Figure 6 separate the training drain from the add-N drain.
func (m *Meter) CategoryEnergyMAh(cat Category) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.profile.VoltageV == 0 || m.profile.BatteryCapacityMAh == 0 {
		return 0
	}
	wh := m.cpu[cat].Hours()*m.profile.CPUPowerW + m.net[cat].Hours()*m.profile.RadioPowerW
	return wh / m.profile.VoltageV * 1000
}

// Time returns the device time attributed to a category (CPU + network).
func (m *Meter) Time(cat Category) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cpu[cat] + m.net[cat]
}

// Total returns the summed device time across all categories.
func (m *Meter) Total() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t time.Duration
	for _, d := range m.cpu {
		t += d
	}
	for _, d := range m.net {
		t += d
	}
	return t
}

// Bytes returns total bytes moved (up, down) for a category.
func (m *Meter) Bytes(cat Category) (up, down int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytesUp[cat], m.bytesDn[cat]
}

// RoundTrips returns the number of client-server exchanges in a category.
func (m *Meter) RoundTrips(cat Category) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.trips[cat]
}

// EnergyMAh integrates battery drain: CPU time on the CPU rail plus network
// time on the radio rail, converted to milliamp-hours at pack voltage.
// Mains-powered profiles (VoltageV or rails zero) return 0.
func (m *Meter) EnergyMAh() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.profile.VoltageV == 0 || m.profile.BatteryCapacityMAh == 0 {
		return 0
	}
	var cpuH, netH float64
	for _, d := range m.cpu {
		cpuH += d.Hours()
	}
	for _, d := range m.net {
		netH += d.Hours()
	}
	wh := cpuH*m.profile.CPUPowerW + netH*m.profile.RadioPowerW
	return wh / m.profile.VoltageV * 1000
}

// ExceedsBattery reports whether accumulated drain surpasses the device's
// battery capacity (the Hom-MSSE shutdown condition of Figure 6).
func (m *Meter) ExceedsBattery() bool {
	if m.profile.BatteryCapacityMAh == 0 {
		return false
	}
	return m.EnergyMAh() > m.profile.BatteryCapacityMAh
}
