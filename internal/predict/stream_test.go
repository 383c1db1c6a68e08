package predict

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/trace"
)

// fittedLSTM returns a small trained model; the weights only have to be
// non-trivial for the exactness tests.
func fittedLSTM(t testing.TB) *LSTM {
	t.Helper()
	return fittedLSTMWindow(t, DefaultLSTMConfig().Window)
}

// fittedLSTMWindow is fittedLSTM with the given BPTT window, which also
// sets the 4·Window suffix its forecasts replay.
func fittedLSTMWindow(t testing.TB, w int) *LSTM {
	t.Helper()
	cfg := DefaultLSTMConfig()
	cfg.Epochs = 3
	cfg.Window = w
	m := NewLSTM(cfg)
	if err := m.Fit(trace.CloudVolatile(4, 120, 31).Speeds); err != nil {
		t.Fatal(err)
	}
	return m
}

// windowOf is the part of s[:n] a tracker keeps: its last window values.
func windowOf(s []float64, n int) []float64 { return s[max(n-window, 0):n] }

// streamSeries are the histories a carried state has to survive: a new
// maximum at every position, one at a random position, repeated maxima,
// leading and interior zeros, nothing but zeros — each long enough to
// cross the 4·Window replay bound.
func streamSeries(rng *rand.Rand, length int) map[string][]float64 {
	out := map[string][]float64{}
	mk := func(name string, f func(i int) float64) {
		s := make([]float64, length)
		for i := range s {
			s[i] = f(i)
		}
		out[name] = s
	}
	mk("random", func(int) float64 { return 0.2 + rng.Float64() })
	mk("rising", func(i int) float64 { return 1 + 0.01*float64(i) + 0.001*rng.Float64() })
	mk("falling", func(i int) float64 { return 3 - 0.01*float64(i) })
	mk("constant", func(int) float64 { return 0.7 })
	mk("repeated-max", func(i int) float64 {
		if i%5 == 0 {
			return 2
		}
		return 0.5 + rng.Float64()
	})
	mk("zeros", func(int) float64 { return 0 })
	mk("leading-zeros", func(i int) float64 {
		if i < 7 {
			return 0
		}
		return 0.3 + rng.Float64()
	})
	mk("interior-zeros", func(i int) float64 {
		if i%9 == 4 {
			return 0
		}
		return 0.3 + rng.Float64()
	})
	peak := rng.Intn(length)
	mk("late-peak", func(i int) float64 {
		if i == peak {
			return 10
		}
		return 0.5 + 0.5*rng.Float64()
	})
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestLSTMStreamBitIdenticalToPredict(t *testing.T) {
	m := fittedLSTM(t)
	rng := rand.New(rand.NewSource(41))
	for _, length := range []int{1, 2, 17, 4*m.cfg.Window + 1, 3*window + 8} {
		for name, s := range streamSeries(rng, length) {
			st := m.newStream()
			for n := 1; n <= len(s); n++ {
				h := windowOf(s, n)
				got, want := st.predict(h, n), m.Predict(h)
				if !sameBits(got, want) {
					t.Fatalf("%s/%d: after %d observations stream %v, Predict %v", name, length, n, got, want)
				}
				// Asking again without a new observation must not advance.
				if again := st.predict(h, n); !sameBits(again, want) {
					t.Fatalf("%s/%d: repeated forecast at %d moved: %v then %v", name, length, n, want, again)
				}
			}
		}
	}
}

func TestLSTMStreamConsumesSeveralObservationsAtOnce(t *testing.T) {
	m := fittedLSTM(t)
	s := streamSeries(rand.New(rand.NewSource(43)), 90)["random"]
	st := m.newStream()
	for n := 3; n <= len(s); n += 3 {
		if got, want := st.predict(windowOf(s, n), n), m.Predict(windowOf(s, n)); !sameBits(got, want) {
			t.Fatalf("at %d: stream %v, Predict %v", n, got, want)
		}
	}
}

func TestLSTMStreamReplaysAfterRefit(t *testing.T) {
	m := fittedLSTM(t)
	s := streamSeries(rand.New(rand.NewSource(47)), 30)["falling"]
	st := m.newStream()
	st.predict(s[:20], 20)
	if err := m.Fit(trace.CloudStable(4, 120, 5).Speeds); err != nil {
		t.Fatal(err)
	}
	if got, want := st.predict(s[:21], 21), m.Predict(s[:21]); !sameBits(got, want) {
		t.Fatalf("after refit: stream %v, Predict %v", got, want)
	}
}

// TestTrackerMatchesStatelessPredict feeds every forecaster one
// observation at a time through a Tracker and checks each forecast
// against Predict on the tracker's own window, before and after it
// slides. The LSTMs replay a 4·Window suffix of 32 (shorter than the
// window), 64 (the window) and 128 (longer).
func TestTrackerMatchesStatelessPredict(t *testing.T) {
	train := trace.CloudVolatile(4, 120, 31).Speeds
	models := []Forecaster{
		fittedLSTMWindow(t, 8), fittedLSTM(t), fittedLSTMWindow(t, 32),
		&AR1{}, &AR2{}, &ARIMA111{}, LastValue{},
		&Ensemble{Models: []Forecaster{fittedLSTM(t), &AR1{}, LastValue{}}},
	}
	for _, f := range models[3:] {
		if err := f.Fit(train); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(53))
	for _, f := range models {
		length := 3*window + 8
		if _, slow := f.(*Ensemble); slow {
			length = 80
		}
		series := streamSeries(rng, length)
		names := make([]string, 0, len(series))
		for name := range series {
			names = append(names, name)
		}
		tk := NewTracker(f, len(names))
		obs := make([]float64, len(names))
		got := make([]float64, len(names))
		for i := 0; i < length; i++ {
			for w, name := range names {
				obs[w] = series[name][i]
			}
			tk.Observe(obs)
			tk.PredictInto(got)
			for w, h := range tk.Histories() {
				want := f.Predict(h)
				if want <= 0 {
					want = h[len(h)-1]
				}
				if !sameBits(got[w], want) {
					t.Fatalf("%s on %s after %d observations: tracker %v, Predict %v", f.Name(), names[w], i+1, got[w], want)
				}
			}
		}
	}
}

// fixedForecaster forecasts the same value whatever the history.
type fixedForecaster struct{ v float64 }

func (fixedForecaster) Name() string                { return "fixed" }
func (fixedForecaster) Fit([][]float64) error       { return nil }
func (f fixedForecaster) Predict([]float64) float64 { return f.v }

func TestTrackerBootstrapAndFallbackRule(t *testing.T) {
	got := make([]float64, 3)
	for _, forecast := range []float64{0, -2} {
		tk := NewTracker(fixedForecaster{forecast}, 3)
		for _, v := range tk.PredictInto(got) {
			if v != 1 {
				t.Fatalf("bootstrap speeds %v, want all 1", got)
			}
		}
		// Worker 1 is idle in round 0 and worker 2 in both rounds.
		tk.Observe([]float64{0.4, 0, 0})
		tk.Observe([]float64{0.25, 0.8, -1})
		tk.PredictInto(got)
		// A forecast ≤ 0 is not evidence of a 100× straggler: fall back to
		// the last observation, which for an unobserved worker is carried.
		if want := []float64{0.25, 0.8, 1}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("forecast %v: planning speeds %v, want last observations %v", forecast, got, want)
		}
		if h := tk.Histories(); fmt.Sprint(h) != "[[0.4 0.25] [1 0.8] [1 1]]" {
			t.Fatalf("histories %v", h)
		}
	}
	tk := NewTracker(fixedForecaster{0.5}, 3)
	tk.Observe([]float64{2, 2, 2})
	for _, v := range tk.PredictInto(got) {
		if v != 0.5 {
			t.Fatalf("speeds %v, want the forecaster's 0.5", got)
		}
	}
}

func TestPermIntoMatchesRandPerm(t *testing.T) {
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	p := make([]int, 37)
	for round := 0; round < 3; round++ {
		permInto(p, a)
		if want := b.Perm(len(p)); fmt.Sprint(p) != fmt.Sprint(want) {
			t.Fatalf("round %d: permInto %v, rand.Perm %v", round, p, want)
		}
	}
}

func TestPredictZeroAllocs(t *testing.T) {
	m := fittedLSTM(t)
	s := streamSeries(rand.New(rand.NewSource(59)), 100)["random"]
	var sink float64
	forecasters := []Forecaster{m, &AR1{c: 0.1, phi: 0.8, fitted: true}, &AR2{c: 0.1, phi1: 0.5, phi2: 0.3, fitted: true},
		&ARIMA111{phi: 0.3, theta: 0.2, fitted: true}}
	for _, f := range forecasters {
		if a := testing.AllocsPerRun(20, func() { sink += f.Predict(s) }); a != 0 {
			t.Errorf("%s.Predict allocates %v per call, want 0", f.Name(), a)
		}
	}

	const n = 6
	tk := NewTracker(m, n)
	obs, dst := make([]float64, n), make([]float64, n)
	// One run is 3·window rounds: AllocsPerRun's per-run average is an
	// integer, which would round occasional growth of the series to 0.
	i := 0
	if a := testing.AllocsPerRun(1, func() {
		for r := 0; r < 3*window; r++ {
			for w := range obs {
				obs[w] = s[(i+w)%len(s)]
			}
			i++
			tk.Observe(obs)
			sink += tk.PredictInto(dst)[0]
		}
	}); a != 0 {
		t.Errorf("Tracker.Observe+PredictInto allocates %v per %d rounds, want 0", a, 3*window)
	}
	_ = sink
}

// TestTrackerForecastCostBoundedByAge holds a forecast's cost flat in a
// job's age: PredictInto after 10⁶ rounds costs at most twice what it
// costs after 10², for the forecasters that read their whole input. Both
// sides are the fastest of several timed batches, so the check is a ratio
// and not a wall-clock bound.
func TestTrackerForecastCostBoundedByAge(t *testing.T) {
	const n = 12
	forecasters := []Forecaster{&AR1{c: 0.1, phi: 0.8, fitted: true}, &ARIMA111{phi: 0.3, theta: 0.2, fitted: true}}
	for _, f := range forecasters {
		rng := rand.New(rand.NewSource(61))
		tk := NewTracker(f, n)
		obs, dst := make([]float64, n), make([]float64, n)
		age := 0
		observeUntil := func(rounds int) {
			for ; age < rounds; age++ {
				for w := range obs {
					obs[w] = 0.2 + rng.Float64()
				}
				tk.Observe(obs)
			}
		}
		cost := func() time.Duration {
			best := time.Duration(math.MaxInt64)
			for batch := 0; batch < 7; batch++ {
				start := time.Now()
				for i := 0; i < 50; i++ {
					tk.PredictInto(dst)
				}
				best = min(best, time.Since(start))
			}
			return best
		}
		observeUntil(100)
		young := cost()
		observeUntil(1_000_000)
		if old := cost(); old > 2*young {
			t.Errorf("%s: PredictInto costs %v per 50 calls after 10⁶ rounds, %v after 10²: more than 2×", f.Name(), old, young)
		}
	}
}

func TestFitAllocationsIndependentOfEpochs(t *testing.T) {
	series := trace.CloudVolatile(4, 120, 31).Speeds
	fit := func(epochs int) float64 {
		cfg := DefaultLSTMConfig()
		cfg.Epochs = epochs
		return testing.AllocsPerRun(3, func() {
			if err := NewLSTM(cfg).Fit(series); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := fit(1), fit(6); few != many {
		t.Fatalf("Fit allocates %v objects at 1 epoch and %v at 6; must not grow with Epochs", few, many)
	}
}

func BenchmarkLSTMPredict(b *testing.B) {
	m := fittedLSTM(b)
	s := trace.CloudVolatile(1, 64, 3).Speeds[0]
	var sink float64
	for _, T := range []int{15, 64} {
		b.Run(fmt.Sprintf("stateless/T=%d", T), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += m.Predict(s[:T])
			}
		})
	}
	// One forecast per new observation along a 15-round job, as the
	// simulator's clusters ask for them.
	b.Run("stream/per-observation", func(b *testing.B) {
		b.ReportAllocs()
		st := m.newStream().(*lstmStream)
		n := 0
		for i := 0; i < b.N; i++ {
			if n == 15 {
				*st = lstmStream{m: m, pair: st.pair}
				n = 0
			}
			n++
			sink += st.predict(s[:n], n)
		}
	})
	_ = sink
}

// BenchmarkLSTMFit is the sim-paper set-up shape: 12 workers × 200 steps,
// 30 epochs.
func BenchmarkLSTMFit(b *testing.B) {
	series := trace.CloudVolatile(12, 200, 1001).Speeds
	cfg := DefaultLSTMConfig()
	cfg.Epochs = 30
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := NewLSTM(cfg).Fit(series); err != nil {
			b.Fatal(err)
		}
	}
}
