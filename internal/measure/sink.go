package measure

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/netip"
	"strconv"
	"time"

	"ritw/internal/dnswire"
	"ritw/internal/entrada"
	"ritw/internal/obs"
)

// Sink receives measurement records as they complete, in virtual-time
// order. Every run delivers its records this way: RunContext pushes
// each client-side QueryRecord and server-side AuthRecord into the
// run's sink the moment the simulator settles it, so consumers
// (writers, spill files, incremental aggregators) can process a run of
// any population size in bounded memory. A run without a configured
// sink uses the Dataset it returns, which implements Sink by appending.
//
// Within one vantage point, records arrive in query order: the probing
// interval (minutes) dwarfs the client timeout (seconds), so a query
// is always settled — answered or timed out — before the VP's next one
// is sent. Across VPs, records interleave in completion order.
//
// The run owns the sink it is given and calls Close exactly once after
// the simulation finishes; Close flushes buffers and reports any
// deferred write error.
type Sink interface {
	OnQuery(QueryRecord)
	OnAuth(AuthRecord)
	Close() error
}

// Meta describes a run apart from its record stream: everything a
// Dataset carries outside the Records/AuthRecords slices.
type Meta struct {
	ComboID      string
	Sites        []string
	Interval     time.Duration
	Duration     time.Duration
	ActiveProbes int
	SiteAddr     map[string]netip.Addr
}

// MetaSink is an optional extension: sinks that also want the run
// summary implement it, and Run/RunContext call OnMeta once — after
// the simulation finishes, before Close.
type MetaSink interface {
	OnMeta(Meta)
}

// OnQuery appends a client-side record.
func (d *Dataset) OnQuery(r QueryRecord) { d.Records = append(d.Records, r) }

// OnAuth appends a server-side record.
func (d *Dataset) OnAuth(a AuthRecord) { d.AuthRecords = append(d.AuthRecords, a) }

// OnMeta fills the dataset's summary fields from the run.
func (d *Dataset) OnMeta(m Meta) {
	d.ComboID = m.ComboID
	d.Sites = append([]string(nil), m.Sites...)
	d.Interval = m.Interval
	d.Duration = m.Duration
	d.ActiveProbes = m.ActiveProbes
	if d.SiteAddr == nil {
		d.SiteAddr = make(map[string]netip.Addr, len(m.SiteAddr))
	}
	for k, v := range m.SiteAddr {
		d.SiteAddr[k] = v
	}
}

// Close implements Sink; a dataset needs no flushing.
func (d *Dataset) Close() error { return nil }

// Tee fans records out to several sinks in argument order. Close
// closes every branch and returns the first error.
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

func (t teeSink) OnQuery(r QueryRecord) {
	for _, s := range t {
		s.OnQuery(r)
	}
}

func (t teeSink) OnAuth(a AuthRecord) {
	for _, s := range t {
		s.OnAuth(a)
	}
}

func (t teeSink) OnMeta(m Meta) {
	for _, s := range t {
		if ms, ok := s.(MetaSink); ok {
			ms.OnMeta(m)
		}
	}
}

func (t teeSink) Close() error {
	var first error
	for _, s := range t {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// countingWriter tracks bytes spilled downstream.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// CSVSink streams client-side records to w in WriteCSV's row format as
// they complete, holding only one buffered row in memory. Write errors
// are deferred to Close. Feeding a dataset's records through a CSVSink
// produces output byte-identical to Dataset.WriteCSV.
type CSVSink struct {
	cw      *csv.Writer
	cnt     *countingWriter
	comboID string
	err     error
	header  bool
}

// NewCSVSink returns a sink writing rows for the given combination.
func NewCSVSink(w io.Writer, comboID string) *CSVSink {
	return &CSVSink{cnt: &countingWriter{w: w}, comboID: comboID}
}

func (s *CSVSink) OnQuery(r QueryRecord) {
	if s.err != nil {
		return
	}
	if !s.header {
		s.header = true
		s.cw = csv.NewWriter(s.cnt)
		s.err = s.cw.Write(csvHeader)
		if s.err != nil {
			return
		}
	}
	s.err = s.cw.Write(csvRow(s.comboID, r))
}

// OnAuth is a no-op: the CSV format carries client-side records only.
func (s *CSVSink) OnAuth(AuthRecord) {}

// Bytes returns how many bytes have been spilled to the writer so far.
// The CSV encoder buffers internally, so call Flush first when the
// offset must account for every record delivered (the snapshot Sync
// hook does).
func (s *CSVSink) Bytes() int64 { return s.cnt.n }

// Flush pushes buffered rows to the underlying writer, surfacing (and
// deferring) any write error. Snapshot checkpoints call it so
// Snapshot.OutBytes covers exactly the records delivered so far.
func (s *CSVSink) Flush() error {
	if s.err == nil && s.cw != nil {
		s.cw.Flush()
		s.err = s.cw.Error()
	}
	return s.err
}

// SkipHeader marks the header as already written — the resume path,
// where the output file retains the previous run's header and rewriting
// it would corrupt the byte-identity of the appended stream.
func (s *CSVSink) SkipHeader() {
	if !s.header {
		s.header = true
		s.cw = csv.NewWriter(s.cnt)
	}
}

// Close writes the header even for an empty run, flushes, and returns
// the first deferred error.
func (s *CSVSink) Close() error {
	if s.err != nil {
		return s.err
	}
	if !s.header {
		s.header = true
		s.cw = csv.NewWriter(s.cnt)
		if err := s.cw.Write(csvHeader); err != nil {
			return err
		}
	}
	s.cw.Flush()
	return s.cw.Error()
}

var csvHeader = []string{"combo", "probe", "resolver", "vp", "continent", "seq", "sent_ms", "rtt_ms", "site", "ok"}

func csvRow(comboID string, r QueryRecord) []string {
	return []string{
		comboID,
		strconv.Itoa(r.ProbeID),
		r.Resolver.String(),
		r.VPKey,
		r.Continent.String(),
		strconv.Itoa(r.Seq),
		strconv.FormatInt(int64(r.SentAt/time.Millisecond), 10),
		strconv.FormatFloat(r.RTTms, 'f', 3, 64),
		r.Site,
		strconv.FormatBool(r.OK),
	}
}

// JSONLSink streams records to w as JSON lines: query records in
// WriteJSONL's flat object form, auth records and site addresses as
// tagged lines, and — when the run supplies it — one tagged summary
// line. The output round-trips through ReadJSONL. Write errors are
// deferred to Close.
type JSONLSink struct {
	bw      *bufio.Writer
	cnt     *countingWriter
	enc     *json.Encoder
	comboID string
	err     error
}

// NewJSONLSink returns a sink writing JSON lines for the given
// combination.
func NewJSONLSink(w io.Writer, comboID string) *JSONLSink {
	cnt := &countingWriter{w: w}
	bw := bufio.NewWriter(cnt)
	return &JSONLSink{bw: bw, cnt: cnt, enc: json.NewEncoder(bw), comboID: comboID}
}

func (s *JSONLSink) OnQuery(r QueryRecord) {
	if s.err != nil {
		return
	}
	jr := queryJSON(s.comboID, r)
	s.err = s.enc.Encode(jr)
}

func (s *JSONLSink) OnAuth(a AuthRecord) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(jsonLine{Auth: &jsonAuth{
		Site:  a.Site,
		Src:   a.Src.String(),
		QName: a.QName,
		AtNs:  int64(a.At),
	}})
}

// OnMeta emits the tagged summary line at the sink's current position:
// WriteJSONL places it first, a live run appends it after the records.
func (s *JSONLSink) OnMeta(m Meta) {
	if s.err != nil {
		return
	}
	jm := &jsonMeta{
		Combo:        m.ComboID,
		Sites:        m.Sites,
		IntervalMs:   int64(m.Interval / time.Millisecond),
		DurationMs:   int64(m.Duration / time.Millisecond),
		ActiveProbes: m.ActiveProbes,
	}
	if len(m.SiteAddr) > 0 {
		jm.SiteAddr = make(map[string]string, len(m.SiteAddr))
		for code, addr := range m.SiteAddr {
			jm.SiteAddr[code] = addr.String()
		}
	}
	s.err = s.enc.Encode(jsonLine{Dataset: jm})
}

// Bytes returns how many bytes have been spilled to the writer so far.
func (s *JSONLSink) Bytes() int64 {
	return s.cnt.n + int64(s.bw.Buffered())
}

// Flush pushes buffered lines downstream, deferring any write error.
func (s *JSONLSink) Flush() error {
	if s.err == nil {
		s.err = s.bw.Flush()
	}
	return s.err
}

// Close flushes and returns the first deferred error.
func (s *JSONLSink) Close() error {
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// EntradaSink spills the server-side capture into an entrada binary
// trace — the warehouse format §5's DITL/ENTRADA validation reads —
// so a run's auth-side stream lands on disk instead of the heap.
// Client-side records pass through untouched (an authoritative never
// sees them). Auth records arrive in virtual-time order, satisfying
// the writer's monotonic-timestamp requirement.
type EntradaSink struct {
	w   *entrada.Writer
	cnt *countingWriter
	err error
}

// NewEntradaSink returns a sink appending auth records to w.
func NewEntradaSink(w io.Writer) *EntradaSink {
	cnt := &countingWriter{w: w}
	return &EntradaSink{w: entrada.NewWriter(cnt), cnt: cnt}
}

// OnQuery is a no-op: entrada stores the server-side view.
func (s *EntradaSink) OnQuery(QueryRecord) {}

func (s *EntradaSink) OnAuth(a AuthRecord) {
	if s.err != nil {
		return
	}
	s.err = s.w.Add(entrada.Query{
		At:     a.At,
		Server: a.Site,
		Src:    a.Src,
		QType:  uint16(dnswire.TypeTXT),
	})
}

// Bytes returns how many bytes have been spilled to the writer so far.
func (s *EntradaSink) Bytes() int64 { return s.cnt.n }

// Close flushes the trace and returns the first deferred error.
func (s *EntradaSink) Close() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// ByteSink is implemented by sinks that spill bytes downstream and can
// report how many; InstrumentSink uses it for the spill gauge.
type ByteSink interface {
	Bytes() int64
}

// InstrumentSink wraps s so the stream's volume shows up in reg:
// measure_sink_records_streamed_total and
// measure_sink_auth_records_streamed_total count emissions, and — when
// s reports spilled bytes via ByteSink — the
// measure_sink_spilled_bytes{sink=<label>} gauge is set at Close.
// A nil registry returns s unchanged.
func InstrumentSink(s Sink, reg *obs.Registry, label string) Sink {
	if reg == nil {
		return s
	}
	return &instrumentedSink{
		inner:   s,
		queries: reg.Counter("measure_sink_records_streamed_total"),
		auths:   reg.Counter("measure_sink_auth_records_streamed_total"),
		spilled: reg.Gauge(obs.LabelName("measure_sink_spilled_bytes", "sink", label)),
	}
}

type instrumentedSink struct {
	inner   Sink
	queries *obs.Counter
	auths   *obs.Counter
	spilled *obs.Gauge
}

func (s *instrumentedSink) OnQuery(r QueryRecord) {
	s.queries.Inc()
	s.inner.OnQuery(r)
}

func (s *instrumentedSink) OnAuth(a AuthRecord) {
	s.auths.Inc()
	s.inner.OnAuth(a)
}

func (s *instrumentedSink) OnMeta(m Meta) {
	if ms, ok := s.inner.(MetaSink); ok {
		ms.OnMeta(m)
	}
}

func (s *instrumentedSink) Close() error {
	err := s.inner.Close()
	if bs, ok := s.inner.(ByteSink); ok {
		s.spilled.Set(float64(bs.Bytes()))
	}
	return err
}
