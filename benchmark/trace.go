package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
)

// Span kinds, in the order a frame produces them. All spans of one frame
// share the trace id <workload>/<device>/<frame>.
const (
	spanPace   = iota // gen.pace: due time to frame start, i.e. pacing lateness plus any wait behind the device's previous frame
	spanStep          // device.step: the frame's Scenario.Next + Chip.StepInto calls
	spanDecide        // client.decide: one Decide/DecideMany round trip
	spanReward        // client.reward: one Reward round trip
)

var spanNames = [...]string{"gen.pace", "device.step", "client.decide", "client.reward"}

type span struct {
	kind       uint8
	sess       uint8 // index into the device's handles: the session the frame used
	win        int16 // the traced window
	frame      int32
	start, end int64 // ns on the run clock
}

// addSpan records into the device's preallocated buffer; a full buffer
// drops the span rather than allocating on the measured path.
func (d *device) addSpan(kind uint8, frame int, start, end int64) {
	if len(d.spans) < cap(d.spans) {
		d.spans = append(d.spans, span{kind, uint8(len(d.handles) - 1), int16(d.traceWin), int32(frame), start, end})
	}
}

// writeTrace writes the spans of traced window win as Chrome trace-event
// JSON (chrome://tracing, ui.perfetto.dev): one thread per device,
// timestamps in µs on the run clock, and the trace id plus session handle
// as args so server-side records keyed by the handle can be joined later.
// One window keeps the file to a few seconds of traffic; the per-layer
// numbers use every traced window.
func writeTrace(path, workload string, devs []*device, win int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	_, _ = w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	sep := ""
	var buf []byte
	for _, d := range devs {
		for _, s := range d.spans {
			if int(s.win) != win {
				continue
			}
			buf = append(buf[:0], sep...)
			sep = ",\n"
			buf = append(buf, `{"name":"`...)
			buf = append(buf, spanNames[s.kind]...)
			buf = append(buf, `","ph":"X","pid":1,"tid":`...)
			buf = strconv.AppendInt(buf, int64(d.idx), 10)
			buf = append(buf, `,"ts":`...)
			buf = strconv.AppendFloat(buf, float64(s.start)/1e3, 'f', 3, 64)
			buf = append(buf, `,"dur":`...)
			buf = strconv.AppendFloat(buf, float64(s.end-s.start)/1e3, 'f', 3, 64)
			buf = append(buf, `,"args":{"trace":`...)
			buf = strconv.AppendQuote(buf, fmt.Sprintf("%s/%d/%d", workload, d.idx, s.frame))
			buf = append(buf, `,"handle":`...)
			buf = strconv.AppendQuote(buf, d.handles[s.sess])
			buf = append(buf, "}}"...)
			_, _ = w.Write(buf)
		}
	}
	_, _ = w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
