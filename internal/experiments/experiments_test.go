package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<id>.golden from the current runners")

// fastConfig keeps every experiment under ~1s in tests.
func fastConfig() Config {
	return Config{Scale: 1, Iterations: 6, Seed: 42}
}

// TestAllRunnersProduceTables runs every registered runner at fastConfig
// and compares its rendered tables, byte for byte, with
// testdata/<id>.golden (rewrite them with -update).
func TestAllRunnersProduceTables(t *testing.T) {
	for name, run := range Registry {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			tables, err := run(fastConfig())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", name)
			}
			var all strings.Builder
			for _, tb := range tables {
				out := tb.Render()
				if !strings.Contains(out, tb.Title) {
					t.Fatalf("%s: render missing title", name)
				}
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: table %q has no rows", name, tb.Title)
				}
				all.WriteString(out + "\n")
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(all.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%s: %v (run go test -run TestAllRunnersProduceTables -update)", name, err)
			}
			if got := all.String(); got != string(want) {
				t.Errorf("%s: tables differ from %s\ngot:\n%s\nwant:\n%s", name, golden, got, want)
			}
		})
	}
}

// parse reads a rendered numeric cell back.
func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig8Shape(t *testing.T) {
	// The qualitative claims of Figure 8 must hold: all conventional MDS
	// variants are slower than s2c2(10,7); s2c2 latency decreases as
	// redundancy grows (8,7) → (10,7); over-decomposition is close to
	// s2c2(10,7) in the low-mis-prediction environment.
	tables, err := RunFig8CloudLow(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	get := func(name string) float64 {
		for _, r := range rows {
			if r[0] == name {
				return cellFloat(t, r[1])
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	for _, mds := range []string{"mds(8,7)", "mds(9,7)", "mds(10,7)"} {
		if get(mds) <= 1.02 {
			t.Fatalf("%s = %.2f should be clearly slower than s2c2(10,7)", mds, get(mds))
		}
	}
	if !(get("s2c2(8,7)") >= get("s2c2(9,7)") && get("s2c2(9,7)") >= get("s2c2(10,7)")) {
		t.Fatalf("s2c2 latency should fall with redundancy: %.2f %.2f %.2f",
			get("s2c2(8,7)"), get("s2c2(9,7)"), get("s2c2(10,7)"))
	}
	if get("over-decomposition") > 1.35 {
		t.Fatalf("over-decomposition = %.2f should be within ~35%% of s2c2(10,7) when predictions are good", get("over-decomposition"))
	}
}

func TestFig6Shape(t *testing.T) {
	// Figure 6 claims: (a) uncoded degrades sharply as stragglers exceed
	// the replication factor, (b) mds(12,10) blows up past 2 stragglers,
	// (c) s2c2(12,6) stays near-flat through 6 stragglers and beats
	// mds(12,6) at low straggler counts.
	tables, err := RunFig6LogisticRegression(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	col := func(name string) int {
		for i, h := range tb.Headers {
			if h == name {
				return i
			}
		}
		t.Fatalf("column %q missing", name)
		return -1
	}
	val := func(row int, name string) float64 { return cellFloat(t, tb.Rows[row][col(name)]) }

	if val(6, "uncoded-3rep+spec") < 2*val(0, "uncoded-3rep+spec") {
		t.Fatal("uncoded should degrade sharply by 6 stragglers")
	}
	if val(3, "mds(12,10)") < 1.5*val(2, "mds(12,10)") {
		t.Fatalf("mds(12,10) should blow up past 2 stragglers: %v -> %v",
			val(2, "mds(12,10)"), val(3, "mds(12,10)"))
	}
	if val(0, "s2c2(12,6)") >= val(0, "mds(12,6)") {
		t.Fatal("general s2c2 should beat conventional (12,6)-MDS with 0 stragglers")
	}
	// Flatness: s2c2 at 6 stragglers within 2.5x of its own 0-straggler value
	// (each straggler removes capacity, so some growth is expected).
	if val(6, "s2c2(12,6)") > 2.5*val(0, "s2c2(12,6)") {
		t.Fatalf("s2c2(12,6) not robust: %v @0 vs %v @6", val(0, "s2c2(12,6)"), val(6, "s2c2(12,6)"))
	}
}

func TestFig12Shape(t *testing.T) {
	tables, err := RunFig12Polynomial(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		conv := cellFloat(t, row[1])
		if conv <= 1.0 {
			t.Fatalf("%s: conventional poly (%.2f) should be slower than poly+s2c2", row[0], conv)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tables, err := RunFig13Scale(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		mds := cellFloat(t, row[1])
		if mds <= 1.0 {
			t.Fatalf("%s: mds(50,40) (%.2f) should be slower than s2c2(50,40)", row[0], mds)
		}
		if mds > 1.6 {
			t.Fatalf("%s: mds(50,40) (%.2f) exceeds the theoretical bound region (~1.25 ideal)", row[0], mds)
		}
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"a", "bbbb"}, Notes: []string{"n"}}
	tb.AddRow("xxxxx", "y")
	out := tb.Render()
	if !strings.Contains(out, "note: n") {
		t.Fatal("missing note")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatalf("unexpected render: %q", out)
	}
}
