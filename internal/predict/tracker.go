package predict

// window is how many of each worker's latest observations the tracker
// keeps and forecasts from, so its memory and a forecast's cost do not
// grow with a job's age: 4 × DefaultLSTMConfig().Window, the longest
// suffix any forecaster replays.
const window = 64

// stream is one series' forecasting state. predict(history, total)
// returns what the forecaster's Predict(history) returns, bit for bit,
// for the window of a series of total observations; between calls the
// series may only grow, which is what lets a stream carry state.
type stream interface {
	predict(history []float64, total int) float64
}

// streamer is implemented by forecasters with an incremental form.
type streamer interface {
	newStream() stream
}

// stateless is the stream of a forecaster without an incremental form:
// the window is kept by the Tracker and handed to Predict whole.
type stateless struct{ f Forecaster }

func (s stateless) predict(history []float64, _ int) float64 { return s.f.Predict(history) }

// Tracker is the master's running estimate of n workers' speeds: each
// worker's latest observations, and the forecaster that extrapolates
// them. Every driver of the predict → plan → run → observe loop holds one,
// so the bootstrap and fallback rules live here and nowhere else.
type Tracker struct {
	// ring holds n rows of 2·window: worker w's observation j is at slots
	// j mod window and window + j mod window of row w, so its window is
	// always one contiguous run of the row, which hist[w] views.
	ring    []float64
	hist    [][]float64
	total   int // observations per worker so far
	streams []stream
}

// NewTracker tracks n workers with forecaster f (already fitted, or
// refitted by the caller on Histories). It allocates all the storage the
// tracker will use: n·2·window observations, whatever the job's length.
func NewTracker(f Forecaster, n int) *Tracker {
	t := &Tracker{ring: make([]float64, n*2*window), hist: make([][]float64, n), streams: make([]stream, n)}
	incremental, _ := f.(streamer)
	for w := range t.streams {
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
//
//s2c2:noalloc
func (t *Tracker) Observe(observed []float64) {
	at := t.total % window
	t.total++
	lo, size := max(t.total-window, 0)%window, min(t.total, window)
	for w, h := range t.hist {
		v := observed[w]
		if v <= 0 {
			v = 1
			if len(h) > 0 {
				v = h[len(h)-1]
			}
		}
		row := t.ring[w*2*window : (w+1)*2*window]
		row[at], row[at+window] = v, v
		t.hist[w] = row[lo : lo+size]
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
		v := t.streams[w].predict(h, t.total)
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

// Histories returns each worker's window, its last min(rounds, window)
// observations oldest first, for callers that refit the forecaster
// online. The views are the tracker's storage, valid until the next
// Observe; do not modify.
func (t *Tracker) Histories() [][]float64 { return t.hist }
