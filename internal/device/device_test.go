package device

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCategoryString(t *testing.T) {
	if Encrypt.String() != "Encrypt" || Train.String() != "Train" {
		t.Error("category names wrong")
	}
	if Category(99).String() != "Category(99)" {
		t.Errorf("unknown category: %s", Category(99).String())
	}
}

func TestCPUFactorScaling(t *testing.T) {
	mm := NewMeter(Mobile)
	dm := NewMeter(Desktop)
	mm.AddCPU(Encrypt, time.Second)
	dm.AddCPU(Encrypt, time.Second)
	if got := mm.Time(Encrypt); got != 10*time.Second {
		t.Errorf("mobile CPU time = %v, want 10s", got)
	}
	if got := dm.Time(Encrypt); got != time.Second {
		t.Errorf("desktop CPU time = %v, want 1s", got)
	}
}

func TestTimeCPUAttributes(t *testing.T) {
	m := NewMeter(Desktop)
	m.TimeCPU(Index, func() { time.Sleep(5 * time.Millisecond) })
	if got := m.Time(Index); got < 5*time.Millisecond {
		t.Errorf("TimeCPU recorded %v, want >= 5ms", got)
	}
	if m.Time(Encrypt) != 0 {
		t.Error("work leaked into another category")
	}
}

func TestAddTransfer(t *testing.T) {
	m := NewMeter(Desktop) // 100 Mb/s both ways, RTT 52.16ms
	m.AddTransfer(Network, 100e6/8, 0)
	// 100 Mb at 100 Mb/s = 1s + RTT
	want := time.Second + Desktop.RTT
	if got := m.Time(Network); got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("transfer time = %v, want ~%v", got, want)
	}
	up, down := m.Bytes(Network)
	if up != 100e6/8 || down != 0 {
		t.Errorf("bytes = (%d,%d)", up, down)
	}
	if m.RoundTrips(Network) != 1 {
		t.Errorf("trips = %d", m.RoundTrips(Network))
	}
}

func TestMobileSlowerLink(t *testing.T) {
	mm := NewMeter(Mobile)
	dm := NewMeter(Desktop)
	mm.AddTransfer(Network, 1e6, 0)
	dm.AddTransfer(Network, 1e6, 0)
	if mm.Time(Network) <= dm.Time(Network) {
		t.Errorf("mobile (%v) should be slower than desktop (%v) for the same upload",
			mm.Time(Network), dm.Time(Network))
	}
}

func TestTotalSumsCategories(t *testing.T) {
	m := NewMeter(Desktop)
	m.AddCPU(Encrypt, time.Second)
	m.AddCPU(Index, 2*time.Second)
	m.AddTransfer(Network, 0, 0) // just one RTT
	want := 3*time.Second + Desktop.RTT
	if got := m.Total(); got != want {
		t.Errorf("Total = %v, want %v", got, want)
	}
}

func TestEnergyModel(t *testing.T) {
	m := NewMeter(Mobile)
	m.AddCPU(Train, 6*time.Minute) // scaled -> 60 min of device CPU
	// 1h at 2.2W = 2.2Wh; at 3.8V = 578.9 mAh
	want := 2.2 / 3.8 * 1000
	if got := m.EnergyMAh(); math.Abs(got-want) > 1 {
		t.Errorf("energy = %v mAh, want ~%v", got, want)
	}
	if m.ExceedsBattery() {
		t.Error("579 mAh should not exceed 3448 mAh battery")
	}
}

func TestExceedsBattery(t *testing.T) {
	m := NewMeter(Mobile)
	// 10h of measured CPU -> 100h device CPU at 2.2W = 220 Wh >> battery.
	m.AddCPU(Train, 10*time.Hour)
	if !m.ExceedsBattery() {
		t.Errorf("%v mAh should exceed the 3448 mAh battery", m.EnergyMAh())
	}
}

func TestDesktopHasNoBattery(t *testing.T) {
	m := NewMeter(Desktop)
	m.AddCPU(Encrypt, time.Hour)
	if m.EnergyMAh() != 0 {
		t.Errorf("mains-powered energy = %v, want 0", m.EnergyMAh())
	}
	if m.ExceedsBattery() {
		t.Error("mains-powered device cannot exceed battery")
	}
}

func TestMeterConcurrency(t *testing.T) {
	m := NewMeter(Desktop)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.AddCPU(Encrypt, time.Millisecond)
				m.AddTransfer(Network, 10, 10)
				m.Total()
				m.EnergyMAh()
			}
		}()
	}
	wg.Wait()
	if got := m.Time(Encrypt); got != 1600*time.Millisecond {
		t.Errorf("concurrent CPU sum = %v, want 1.6s", got)
	}
	if got := m.RoundTrips(Network); got != 1600 {
		t.Errorf("trips = %d, want 1600", got)
	}
}
