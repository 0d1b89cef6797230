package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"preemptsched/internal/cluster"
)

// CSV column layout for serialized traces.
const csvHeader = "time_ns,type,job,index,priority,latency,cpu_millis"

// WriteCSV serializes events in a stable text format usable by external
// tooling and by `experiments trace -in`.
func WriteCSV(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, csvHeader); err != nil {
		return err
	}
	for i := range events {
		e := &events[i]
		_, err := fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%d\n",
			e.Time.Nanoseconds(), int(e.Type), e.Task.Job, e.Task.Index,
			int(e.Priority), int(e.Latency), e.CPU)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCSVGz serializes events as gzip-compressed CSV; full traces
// compress roughly 10x, which matters at the real trace's 144M-event
// scale.
func WriteCSVGz(w io.Writer, events []Event) error {
	zw := gzip.NewWriter(w)
	if err := WriteCSV(zw, events); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// ReadCSVGz parses a trace written by WriteCSVGz.
func ReadCSVGz(r io.Reader) ([]Event, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: open gzip stream: %w", err)
	}
	defer zr.Close()
	events, err := ReadCSV(zr)
	if err != nil {
		return nil, err
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("trace: close gzip stream: %w", err)
	}
	return events, nil
}

// csvBits is each column's integer width: the task index is an int32.
var csvBits = [7]int{64, 64, 64, 32, 64, 64, 64}

// ReadCSV parses a trace written by WriteCSV. It rejects, with the line and
// field, a number that does not fit its column and an event type, priority
// or latency class outside its range, so that Analyze can index by them.
func ReadCSV(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 {
			if text != csvHeader {
				return nil, fmt.Errorf("trace: line 1: unexpected header %q", text)
			}
			continue
		}
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 7 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want 7", line, len(fields))
		}
		nums := make([]int64, 7)
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 10, csvBits[i])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d field %d: %w", line, i+1, err)
			}
			nums[i] = v
		}
		for _, c := range [...]struct {
			field   int
			what    string
			lo, top int64
		}{
			{2, "event type", int64(Submit), int64(Finish)},
			{5, "priority", int64(cluster.MinPriority), int64(cluster.MaxPriority)},
			{6, "latency class", 0, cluster.NumLatencyClasses - 1},
		} {
			if v := nums[c.field-1]; v < c.lo || v > c.top {
				return nil, fmt.Errorf("trace: line %d field %d: %s %d outside [%d, %d]", line, c.field, c.what, v, c.lo, c.top)
			}
		}
		events = append(events, Event{
			Time:     time.Duration(nums[0]),
			Type:     EventType(nums[1]),
			Task:     cluster.TaskID{Job: cluster.JobID(nums[2]), Index: int32(nums[3])},
			Priority: cluster.Priority(nums[4]),
			Latency:  cluster.LatencyClass(nums[5]),
			CPU:      nums[6],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}
