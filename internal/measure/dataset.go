package measure

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"time"

	"ritw/internal/geo"
)

// meta snapshots the dataset's summary fields for the tagged JSONL
// line and for sinks.
func (d *Dataset) meta() Meta {
	return Meta{
		ComboID:      d.ComboID,
		Sites:        d.Sites,
		Interval:     d.Interval,
		Duration:     d.Duration,
		ActiveProbes: d.ActiveProbes,
		SiteAddr:     d.SiteAddr,
	}
}

// Replay feeds the dataset's records to sink in stored order — client
// records, then auth records — which is the order a run delivered
// them: it is how stored records (a finished run's, ReadCSV's,
// ReadJSONL's) reach the sinks a live run streams into. Replay neither
// sends the summary nor closes the sink.
func (d *Dataset) Replay(sink Sink) {
	for _, r := range d.Records {
		sink.OnQuery(r)
	}
	for _, a := range d.AuthRecords {
		sink.OnAuth(a)
	}
}

// WriteCSV emits the client-side records in the spirit of the paper's
// published datasets: one row per probe query, in CSVSink's format.
func (d *Dataset) WriteCSV(w io.Writer) error {
	s := NewCSVSink(w, d.ComboID)
	d.Replay(s)
	return s.Close()
}

// ReadCSV parses a dataset previously exported with WriteCSV, enabling
// offline re-analysis of published run artifacts. Sites and the run
// duration are reconstructed from the records (duration is the last
// send time rounded up to a minute); the probing interval is not
// stored in the CSV and is left zero.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 || len(rows[0]) != 10 || rows[0][0] != "combo" {
		return nil, fmt.Errorf("measure: not a dataset CSV")
	}
	ds := &Dataset{SiteAddr: map[string]netip.Addr{}}
	sites := map[string]bool{}
	var maxSent time.Duration
	for i, row := range rows[1:] {
		if len(row) != 10 {
			return nil, fmt.Errorf("measure: row %d has %d fields", i+2, len(row))
		}
		if ds.ComboID == "" {
			ds.ComboID = row[0]
		}
		probe, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, fmt.Errorf("measure: row %d probe: %w", i+2, err)
		}
		raddr, err := netip.ParseAddr(row[2])
		if err != nil {
			return nil, fmt.Errorf("measure: row %d resolver: %w", i+2, err)
		}
		cont, err := geo.ParseContinent(row[4])
		if err != nil {
			return nil, fmt.Errorf("measure: row %d: %w", i+2, err)
		}
		seq, err := strconv.Atoi(row[5])
		if err != nil {
			return nil, fmt.Errorf("measure: row %d seq: %w", i+2, err)
		}
		sentMs, err := strconv.ParseInt(row[6], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("measure: row %d sent: %w", i+2, err)
		}
		rtt, err := strconv.ParseFloat(row[7], 64)
		if err != nil {
			return nil, fmt.Errorf("measure: row %d rtt: %w", i+2, err)
		}
		ok, err := strconv.ParseBool(row[9])
		if err != nil {
			return nil, fmt.Errorf("measure: row %d ok: %w", i+2, err)
		}
		rec := QueryRecord{
			ProbeID:   probe,
			Resolver:  raddr,
			VPKey:     row[3],
			Continent: cont,
			Seq:       seq,
			SentAt:    time.Duration(sentMs) * time.Millisecond,
			RTTms:     rtt,
			Site:      row[8],
			OK:        ok,
		}
		if rec.SentAt > maxSent {
			maxSent = rec.SentAt
		}
		if rec.Site != "" {
			sites[rec.Site] = true
		}
		ds.Records = append(ds.Records, rec)
	}
	for s := range sites {
		ds.Sites = append(ds.Sites, s)
	}
	sort.Strings(ds.Sites)
	ds.Duration = maxSent.Truncate(time.Minute) + time.Minute
	probes := map[int]bool{}
	for _, rec := range ds.Records {
		probes[rec.ProbeID] = true
	}
	ds.ActiveProbes = len(probes)
	return ds, nil
}

// jsonRecord is the JSONL representation of a QueryRecord.
type jsonRecord struct {
	Combo     string  `json:"combo"`
	Probe     int     `json:"probe"`
	Resolver  string  `json:"resolver"`
	VP        string  `json:"vp"`
	Continent string  `json:"continent"`
	Seq       int     `json:"seq"`
	SentMs    int64   `json:"sent_ms"`
	RTTms     float64 `json:"rtt_ms"`
	Site      string  `json:"site"`
	OK        bool    `json:"ok"`
}

func queryJSON(comboID string, r QueryRecord) jsonRecord {
	return jsonRecord{
		Combo:     comboID,
		Probe:     r.ProbeID,
		Resolver:  r.Resolver.String(),
		VP:        r.VPKey,
		Continent: r.Continent.String(),
		Seq:       r.Seq,
		SentMs:    int64(r.SentAt / time.Millisecond),
		RTTms:     r.RTTms,
		Site:      r.Site,
		OK:        r.OK,
	}
}

// jsonMeta is the tagged dataset-summary JSONL line.
type jsonMeta struct {
	Combo        string            `json:"combo"`
	Sites        []string          `json:"sites,omitempty"`
	IntervalMs   int64             `json:"interval_ms"`
	DurationMs   int64             `json:"duration_ms"`
	ActiveProbes int               `json:"active_probes"`
	SiteAddr     map[string]string `json:"site_addr,omitempty"`
}

// jsonAuth is the tagged server-side capture JSONL line.
type jsonAuth struct {
	Site  string `json:"site"`
	Src   string `json:"src"`
	QName string `json:"qname"`
	AtNs  int64  `json:"at_ns"`
}

// jsonLine is a tagged (non-query) JSONL line on output.
type jsonLine struct {
	Dataset *jsonMeta `json:"dataset,omitempty"`
	Auth    *jsonAuth `json:"auth,omitempty"`
}

// jsonLineIn decodes any JSONL line: tagged summary/auth lines carry
// their discriminating key, everything else is a flat query record.
type jsonLineIn struct {
	Dataset *jsonMeta `json:"dataset"`
	Auth    *jsonAuth `json:"auth"`
	jsonRecord
}

// WriteJSONL emits the dataset as JSON lines, the other format the
// measurement community expects: one tagged summary line (carrying
// sites, interval, duration, probe count and site addresses), then one
// flat object per query record, then one tagged line per auth record.
// The output round-trips through ReadJSONL.
func (d *Dataset) WriteJSONL(w io.Writer) error {
	s := NewJSONLSink(w, d.ComboID)
	s.OnMeta(d.meta())
	d.Replay(s)
	return s.Close()
}

// ReadJSONL parses a dataset exported with WriteJSONL (or streamed by
// a JSONLSink). The tagged summary line restores the fields a CSV
// round-trip loses — interval, site list, site addresses — and auth
// lines restore the server-side capture. Plain record streams without
// a summary line are accepted too; summary fields are then
// reconstructed from the records as ReadCSV does.
func ReadJSONL(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	ds := &Dataset{SiteAddr: map[string]netip.Addr{}}
	sawMeta := false
	sites := map[string]bool{}
	var maxSent time.Duration
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var jl jsonLineIn
		if err := json.Unmarshal(line, &jl); err != nil {
			return nil, fmt.Errorf("measure: jsonl line %d: %w", lineNo, err)
		}
		switch {
		case jl.Dataset != nil:
			m := jl.Dataset
			sawMeta = true
			ds.ComboID = m.Combo
			ds.Sites = append([]string(nil), m.Sites...)
			ds.Interval = time.Duration(m.IntervalMs) * time.Millisecond
			ds.Duration = time.Duration(m.DurationMs) * time.Millisecond
			ds.ActiveProbes = m.ActiveProbes
			for code, s := range m.SiteAddr {
				addr, err := netip.ParseAddr(s)
				if err != nil {
					return nil, fmt.Errorf("measure: jsonl line %d site %s: %w", lineNo, code, err)
				}
				ds.SiteAddr[code] = addr
			}
		case jl.Auth != nil:
			src, err := netip.ParseAddr(jl.Auth.Src)
			if err != nil {
				return nil, fmt.Errorf("measure: jsonl line %d auth src: %w", lineNo, err)
			}
			ds.AuthRecords = append(ds.AuthRecords, AuthRecord{
				Site:  jl.Auth.Site,
				Src:   src,
				QName: jl.Auth.QName,
				At:    time.Duration(jl.Auth.AtNs),
			})
		default:
			jr := jl.jsonRecord
			rec := QueryRecord{
				ProbeID: jr.Probe,
				VPKey:   jr.VP,
				Seq:     jr.Seq,
				SentAt:  time.Duration(jr.SentMs) * time.Millisecond,
				RTTms:   jr.RTTms,
				Site:    jr.Site,
				OK:      jr.OK,
			}
			if jr.Resolver != "" {
				addr, err := netip.ParseAddr(jr.Resolver)
				if err != nil {
					return nil, fmt.Errorf("measure: jsonl line %d resolver: %w", lineNo, err)
				}
				rec.Resolver = addr
			}
			if jr.Continent != "" {
				cont, err := geo.ParseContinent(jr.Continent)
				if err != nil {
					return nil, fmt.Errorf("measure: jsonl line %d: %w", lineNo, err)
				}
				rec.Continent = cont
			}
			if ds.ComboID == "" {
				ds.ComboID = jr.Combo
			}
			if rec.SentAt > maxSent {
				maxSent = rec.SentAt
			}
			if rec.Site != "" {
				sites[rec.Site] = true
			}
			ds.Records = append(ds.Records, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if lineNo == 0 {
		return nil, fmt.Errorf("measure: empty jsonl input")
	}
	if !sawMeta {
		for s := range sites {
			ds.Sites = append(ds.Sites, s)
		}
		sort.Strings(ds.Sites)
		ds.Duration = maxSent.Truncate(time.Minute) + time.Minute
		probes := map[int]bool{}
		for _, rec := range ds.Records {
			probes[rec.ProbeID] = true
		}
		ds.ActiveProbes = len(probes)
	}
	return ds, nil
}

// Summary prints the Table-1-style row for this run.
func (d *Dataset) Summary() string {
	ok := 0
	for _, r := range d.Records {
		if r.OK {
			ok++
		}
	}
	return fmt.Sprintf("%s sites=%v probes=%d queries=%d answered=%d (%.1f%%)",
		d.ComboID, d.Sites, d.ActiveProbes, len(d.Records), ok,
		100*float64(ok)/float64(max(1, len(d.Records))))
}
