package experiments

import (
	"fmt"
	"io"
	"time"
)

// seconds renders a duration as the figures do (seconds, 3 decimals).
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// ms is a duration in (fractional) milliseconds, the unit of the system
// experiments' JSON reports.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// WriteUpdateReport prints Figure 2/3 rows as a table.
func WriteUpdateReport(w io.Writer, title string, rows []UpdateRow) {
	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "%-9s %6s %12s %12s %12s %12s %12s\n",
		"Scheme", "N", "Encrypt(s)", "Network(s)", "Index(s)", "Train(s)", "Total(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %6d %12s %12s %12s %12s %12s\n",
			r.Scheme, r.N, seconds(r.Encrypt), seconds(r.Network),
			seconds(r.Index), seconds(r.Train), seconds(r.Total))
	}
}

// WriteEnergyReport prints Figure 6 rows (battery drain per scheme/size).
func WriteEnergyReport(w io.Writer, rows []UpdateRow, batteryMAh float64) {
	fmt.Fprintf(w, "== Figure 6: mobile energy consumption (battery %.0f mAh) ==\n", batteryMAh)
	fmt.Fprintf(w, "%-9s %6s %14s %14s %10s\n", "Scheme", "N", "Add(mAh)", "Train(mAh)", "Shutdown")
	for _, r := range rows {
		shutdown := ""
		if r.BatteryExceeded {
			shutdown = "DEVICE DEAD"
		}
		fmt.Fprintf(w, "%-9s %6d %14.1f %14.1f %10s\n",
			r.Scheme, r.N, r.EnergyAddMAh, r.EnergyTrainMAh, shutdown)
	}
}

// WriteSearchReport prints Figure 5 rows.
func WriteSearchReport(w io.Writer, rows []SearchRow) {
	fmt.Fprintln(w, "== Figure 5: search performance ==")
	fmt.Fprintf(w, "%-9s %-16s %12s %12s %12s %12s\n",
		"Scheme", "Device", "Encrypt(s)", "Network(s)", "Index(s)", "Total(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-16s %12s %12s %12s %12s\n",
			r.Scheme, r.Device, seconds(r.Encrypt), seconds(r.Network),
			seconds(r.Index), seconds(r.Total))
	}
}

// WriteMultiUserReport prints Figure 4 rows.
func WriteMultiUserReport(w io.Writer, rows []MultiUserRow) {
	fmt.Fprintln(w, "== Figure 4: concurrent multi-user update (MIE) ==")
	fmt.Fprintf(w, "%-16s %6s %12s %12s %12s %12s\n",
		"Device", "N", "Encrypt(s)", "Network(s)", "Index(s)", "Total(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %6d %12s %12s %12s %12s\n",
			r.Device, r.N, seconds(r.Encrypt), seconds(r.Network),
			seconds(r.Index), seconds(r.Total))
	}
}

// WritePrecisionReport prints Table III rows.
func WritePrecisionReport(w io.Writer, rows []PrecisionRow) {
	fmt.Fprintln(w, "== Table III: retrieval precision (Holidays-style benchmark) ==")
	fmt.Fprintf(w, "%-10s %10s\n", "System", "mAP(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10.3f\n", r.System, r.MAP*100)
	}
}

// WriteTable1Report prints the analytical table plus the empirical scaling
// check.
func WriteTable1Report(w io.Writer, rows []Table1Row, scaling *Table1Scaling) {
	fmt.Fprintln(w, "== Table I: scheme overview ==")
	fmt.Fprintf(w, "%-9s %-8s %-8s %-8s %-11s %-22s %-18s\n",
		"Scheme", "Search", "Update", "Client", "Query", "SearchLeakage", "UpdateLeakage")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-8s %-8s %-8s %-11s %-22s %-18s\n",
			r.Scheme, r.SearchTime, r.UpdateTime, r.ClientStorage,
			r.QueryType, r.SearchLeakage, r.UpdateLeakage)
	}
	if scaling == nil {
		return
	}
	fmt.Fprintf(w, "\nEmpirical check (MIE, repo %d -> %d objects):\n", scaling.SmallN, scaling.LargeN)
	fmt.Fprintf(w, "  indexed search: %v -> %v (x%.2f growth)\n",
		scaling.IndexedSearchSmall, scaling.IndexedSearchLarge, scaling.IndexedRatio)
	fmt.Fprintf(w, "  linear search:  %v -> %v (x%.2f growth)\n",
		scaling.LinearSearchSmall, scaling.LinearSearchLarge, scaling.LinearRatio)
	fmt.Fprintf(w, "  index vs scan at N=%d: %.1fx faster (the O(m/n) payoff)\n",
		scaling.LargeN, scaling.SpeedupLarge)
	fmt.Fprintf(w, "  update:         %v -> %v (x%.2f; size-independent)\n",
		scaling.UpdateSmall, scaling.UpdateLarge, scaling.UpdateRatio)
}

// WriteTable2Report prints Table II rows.
func WriteTable2Report(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "== Table II: DPE encoded distances ==")
	for _, r := range rows {
		fmt.Fprintln(w, "  "+r.String())
	}
}
