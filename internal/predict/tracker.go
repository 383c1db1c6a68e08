package predict

// stream is one series' forecasting state. predict(history) returns what
// the forecaster's Predict(history) returns, bit for bit; between calls
// the history may only have been appended to, which is what lets a stream
// carry state instead of recomputing it.
type stream interface {
	predict(history []float64) float64
}

// streamer is implemented by forecasters with an incremental form.
type streamer interface {
	newStream() stream
}

// stateless is the stream of a forecaster without an incremental form:
// the history is kept by the Tracker and handed to Predict whole.
type stateless struct{ f Forecaster }

func (s stateless) predict(history []float64) float64 { return s.f.Predict(history) }

// Tracker is the master's running estimate of n workers' speeds: the
// observed series, one per worker, and the forecaster that extrapolates
// them. Every driver of the predict → plan → run → observe loop holds one,
// so the bootstrap and fallback rules live here and nowhere else.
type Tracker struct {
	hist    [][]float64
	streams []stream
}

// NewTracker tracks n workers with forecaster f (already fitted, or
// refitted by the caller as Histories accumulate).
func NewTracker(f Forecaster, n int) *Tracker {
	t := &Tracker{hist: make([][]float64, n), streams: make([]stream, n)}
	// One allocation holds every worker's first rounds — all of a short
	// job's; a series that outgrows its share moves out by append.
	const rounds = 16
	flat := make([]float64, n*rounds)
	incremental, _ := f.(streamer)
	for w := range t.streams {
		t.hist[w] = flat[w*rounds : w*rounds : (w+1)*rounds]
		if incremental != nil {
			t.streams[w] = incremental.newStream()
		} else {
			t.streams[w] = stateless{f}
		}
	}
	return t
}

// Observe records one round's observed speed per worker. A value ≤ 0
// means the worker was not observed (idle, or it never answered): its
// series carries its last value — 1 before any — so it stays continuous.
// It allocates only when a history outgrows its capacity.
func (t *Tracker) Observe(observed []float64) {
	for w, v := range observed {
		h := t.hist[w]
		if v <= 0 {
			v = 1
			if len(h) > 0 {
				v = h[len(h)-1]
			}
		}
		t.hist[w] = append(h, v)
	}
}

// PredictInto writes the speeds to plan the next round from into dst
// (length n) and returns it: 1.0 for a worker with no observation yet
// (the paper's bootstrap round), otherwise the forecast; a forecast ≤ 0
// (models clamp at 0) falls back to the last observation rather than
// declaring a straggler on no evidence, and only a non-positive
// observation falls through to 0.01.
//
//s2c2:noalloc
func (t *Tracker) PredictInto(dst []float64) []float64 {
	for w, h := range t.hist {
		if len(h) == 0 {
			dst[w] = 1
			continue
		}
		v := t.streams[w].predict(h)
		if v <= 0 {
			v = h[len(h)-1]
		}
		if v <= 0 {
			v = 0.01
		}
		dst[w] = v
	}
	return dst
}

// Histories returns the observed series, one per worker, for callers
// that refit the forecaster online. The tracker keeps appending to them;
// do not modify.
func (t *Tracker) Histories() [][]float64 { return t.hist }
