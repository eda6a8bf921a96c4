package experiments

import (
	"bytes"
	"strings"
	"testing"

	"mie/internal/dataset"
	"mie/internal/device"
)

func TestTable2Shape(t *testing.T) {
	rows, err := Table2(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	dense := rows[0]
	if dense.D0 != 0 {
		t.Errorf("Dense D0 = %v, want 0", dense.D0)
	}
	if dense.D03 < 0.2 || dense.D03 > 0.4 {
		t.Errorf("Dense D03 = %v, want ~0.3 (preserved)", dense.D03)
	}
	if dense.D07 < 0.4 || dense.D07 > 0.65 {
		t.Errorf("Dense D07 = %v, want saturated near 0.5", dense.D07)
	}
	if dense.D10 < 0.4 || dense.D10 > 0.65 {
		t.Errorf("Dense D10 = %v, want saturated near 0.5", dense.D10)
	}
	if dense.PFV < 0.35 || dense.PFV > 0.65 {
		t.Errorf("Dense PFV = %v, want ~0.5 (encoding unrelated to plaintext)", dense.PFV)
	}
	sparse := rows[1]
	if sparse.D0 != 0 || sparse.D03 != 1 || sparse.D07 != 1 || sparse.D10 != 1 {
		t.Errorf("Sparse row wrong: %+v", sparse)
	}
}

func TestUpdateExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	cfg := Quick()
	rows, err := UpdateExperiment(device.Desktop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Schemes())*len(cfg.Sizes) {
		t.Fatalf("rows = %d", len(rows))
	}
	byScheme := make(map[string]UpdateRow)
	for _, r := range rows {
		if r.N == cfg.Sizes[len(cfg.Sizes)-1] {
			byScheme[r.Scheme] = r
		}
	}
	// The paper's headline: MIE pays no client-side training and its total
	// beats Hom-MSSE by a wide margin.
	if byScheme[SchemeMIE].Train != 0 {
		t.Errorf("MIE Train = %v, want 0 (outsourced)", byScheme[SchemeMIE].Train)
	}
	if byScheme[SchemeMSSE].Train == 0 {
		t.Error("MSSE must pay client-side training")
	}
	if byScheme[SchemeHomMSSE].Total <= byScheme[SchemeMIE].Total {
		t.Errorf("Hom-MSSE total (%v) should exceed MIE total (%v)",
			byScheme[SchemeHomMSSE].Total, byScheme[SchemeMIE].Total)
	}
	var buf bytes.Buffer
	WriteUpdateReport(&buf, "Figure 3 (desktop)", rows)
	if !strings.Contains(buf.String(), "MIE") {
		t.Error("report missing MIE row")
	}
}

func TestSearchExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	cfg := Quick()
	rows, err := SearchExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 schemes x 2 devices)", len(rows))
	}
	byKey := make(map[string]SearchRow)
	for _, r := range rows {
		byKey[r.Scheme+"/"+r.Device] = r
	}
	// Mobile must be slower than desktop for every scheme.
	for _, s := range Schemes() {
		d := byKey[s+"/"+device.Desktop.Name]
		m := byKey[s+"/"+device.Mobile.Name]
		if m.Total <= d.Total {
			t.Errorf("%s: mobile total (%v) should exceed desktop (%v)", s, m.Total, d.Total)
		}
	}
	var buf bytes.Buffer
	WriteSearchReport(&buf, rows)
	if !strings.Contains(buf.String(), "Hom-MSSE") {
		t.Error("report missing Hom-MSSE")
	}
}

// The figures' Network bar is bytes plus one RTT per charged round trip, so
// every scheme adapter must charge a search the trips its protocol makes:
// MIE sends the query and gets the hits back in one, the MSSE baselines
// fetch counters first and search second (msse.TestMeterChargesEveryRoundTrip
// holds their links to the bytes).
func TestSearchChargesTheRoundTripsItMakes(t *testing.T) {
	cfg := Quick()
	corpus := dataset.Flickr(dataset.FlickrParams{N: 12, ImageSize: cfg.ImageSize, Seed: cfg.Seed})
	for name, want := range map[string]int{SchemeMIE: 1, SchemeMSSE: 2, SchemeHomMSSE: 2} {
		build, err := newScheme(name, cfg, nil, "trips-"+name)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range corpus {
			if err := build.add(obj); err != nil {
				t.Fatal(err)
			}
		}
		if err := build.train(); err != nil {
			t.Fatal(err)
		}
		meter := device.NewMeter(device.Desktop)
		user, err := build.queryClient(meter)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := user.search(corpus[0], cfg.K)
		if err != nil || len(ids) == 0 {
			t.Fatalf("%s: search = %v, %v", name, ids, err)
		}
		if got := meter.RoundTrips(device.Network); got != want {
			t.Errorf("%s: one search charged %d round trips, want %d", name, got, want)
		}
		if up, down := meter.Bytes(device.Network); up <= 0 || down <= 0 {
			t.Errorf("%s: one search moved %d bytes up, %d down", name, up, down)
		}
	}
}

func TestMultiUserExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	cfg := Quick()
	rows, err := MultiUserExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Total == 0 {
			t.Errorf("%s total = 0", r.Device)
		}
		if r.N != cfg.MultiUserSize {
			t.Errorf("%s N = %d", r.Device, r.N)
		}
	}
	var buf bytes.Buffer
	WriteMultiUserReport(&buf, rows)
	if !strings.Contains(buf.String(), "mobile") {
		t.Error("report missing mobile row")
	}
}

func TestPrecisionExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	cfg := Quick()
	rows, err := PrecisionExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 systems", len(rows))
	}
	maps := make(map[string]float64)
	for _, r := range rows {
		if r.MAP <= 0 || r.MAP > 1 {
			t.Errorf("%s mAP = %v out of range", r.System, r.MAP)
		}
		maps[r.System] = r.MAP
	}
	// Table III's claim: encryption does not meaningfully hurt precision.
	// On the tiny Quick benchmark allow a generous band.
	if maps[SchemeMIE] < maps[SchemePlain]-0.25 {
		t.Errorf("MIE mAP %v far below plaintext %v", maps[SchemeMIE], maps[SchemePlain])
	}
	var buf bytes.Buffer
	WritePrecisionReport(&buf, rows)
	if !strings.Contains(buf.String(), "Plaintext") {
		t.Error("report missing plaintext row")
	}
}

func TestTable1(t *testing.T) {
	rows := Table1Static()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[2].Scheme != SchemeMIE || rows[2].ClientStorage != "O(1)" {
		t.Errorf("MIE row wrong: %+v", rows[2])
	}
	if testing.Short() {
		t.Skip("slow scaling measurement")
	}
	cfg := Quick()
	scaling, err := Table1Empirical(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scaling.IndexedSearchSmall <= 0 || scaling.LinearSearchLarge <= 0 {
		t.Error("non-positive timings")
	}
	var buf bytes.Buffer
	WriteTable1Report(&buf, rows, scaling)
	if !strings.Contains(buf.String(), "Empirical check") {
		t.Error("report missing scaling section")
	}
}

func TestEnergyReportMarksShutdown(t *testing.T) {
	rows := []UpdateRow{
		{Scheme: SchemeMIE, N: 1000, EnergyAddMAh: 100},
		{Scheme: SchemeHomMSSE, N: 3000, EnergyAddMAh: 4000, BatteryExceeded: true},
	}
	var buf bytes.Buffer
	WriteEnergyReport(&buf, rows, 3448)
	if !strings.Contains(buf.String(), "DEVICE DEAD") {
		t.Error("shutdown marker missing")
	}
}

func TestAttackExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	cfg := Quick()
	rows, err := AttackExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Monotone non-decreasing recovery, and the cliff shape: modest
	// knowledge recovers little, full knowledge much more.
	for i := 1; i < len(rows); i++ {
		if rows[i].RecoveryRate+1e-9 < rows[i-1].RecoveryRate {
			t.Errorf("recovery not monotone at %v: %v < %v",
				rows[i].KnownFraction, rows[i].RecoveryRate, rows[i-1].RecoveryRate)
		}
	}
	if rows[0].RecoveryRate > 0.3 {
		t.Errorf("10%% knowledge recovered %v — attack too strong", rows[0].RecoveryRate)
	}
	if rows[len(rows)-1].RecoveryRate <= rows[0].RecoveryRate {
		t.Error("full knowledge should beat 10% knowledge")
	}
	var buf bytes.Buffer
	WriteAttackReport(&buf, rows)
	if !strings.Contains(buf.String(), "leakage-abuse") {
		t.Error("report header missing")
	}
}

// The ANN gate: the multi-probe LSH candidate path must keep recall@10 >= 0.9
// at its best operating point. A regression here means probe enumeration or
// the re-rank sweep broke even though the parity tests (which use exhaustive
// budgets) still pass. The seeded quick run lands on exactly 0.900, so the
// comparison is >=, not >.
func TestANNExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	report, err := ANNExperiment(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Sweep) == 0 {
		t.Fatal("empty sweep")
	}
	if report.Best.Recall10 < 0.9 {
		t.Errorf("best recall@10 = %.3f (L=%d K=%d probes=%d), below the 0.9 floor",
			report.Best.Recall10, report.Best.Tables, report.Best.Bits, report.Best.Probes)
	}
}
