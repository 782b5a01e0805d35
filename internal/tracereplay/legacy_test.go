package tracereplay

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// This file holds test-only copies of the two trace parsers Parse
// replaced and of the sniffing that chose between them, so FuzzParse can
// hold the single parser to their behaviour. They are references: do not
// call them from anything but the differential tests.

// legacyParse routes data the way the CLI did: a production parse when
// the first data row has four columns (legacyDetect), the offset-row
// parser otherwise, its rows returned as Rows with Runtime 0.
func legacyParse(data []byte) (*Trace, error) {
	if legacyDetect(data) {
		return legacyParseProduction(bytes.NewReader(data))
	}
	at, err := legacyParseOffsets(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	tr := &Trace{Warnings: at.Warnings}
	for i := range at.Offsets {
		tr.Rows = append(tr.Rows, Row{Tenant: at.Tenants[i], Arrival: at.Offsets[i], Cores: at.Cores[i]})
	}
	return tr, nil
}

// legacyDetect is the old Detect over bytes instead of a path: it reads
// at most the first 64 KiB and looks only at the first non-comment line.
func legacyDetect(data []byte) bool {
	sc := bufio.NewScanner(io.LimitReader(bytes.NewReader(data), 64<<10))
	for sc.Scan() {
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		return len(strings.Split(s, ",")) == 4
	}
	return false
}

// legacyParseProduction is the old tracereplay.Parse.
func legacyParseProduction(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	line := 0
	sorted := true
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		fields := strings.Split(s, ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("line %d: %d fields (want TENANT,ARRIVAL,RUNTIME,CORES)", line, len(fields))
		}
		tenant := strings.TrimSpace(fields[0])
		arrival, aerr := legacyParseDur(fields[1])
		runtime, rerr := legacyParseDur(fields[2])
		if len(tr.Rows) == 0 && (aerr != nil || rerr != nil) && legacyLooksLikeHeader(fields) {
			tr.Warnings = append(tr.Warnings, fmt.Sprintf("line %d: skipped header row %q", line, s))
			continue
		}
		if tenant == "" {
			return nil, fmt.Errorf("line %d: empty tenant", line)
		}
		if aerr != nil || arrival < 0 {
			return nil, fmt.Errorf("line %d: bad arrival %q", line, strings.TrimSpace(fields[1]))
		}
		if rerr != nil || runtime <= 0 {
			return nil, fmt.Errorf("line %d: bad runtime %q", line, strings.TrimSpace(fields[2]))
		}
		cores, err := strconv.Atoi(strings.TrimSpace(fields[3]))
		if err != nil || cores < 1 {
			return nil, fmt.Errorf("line %d: bad cores %q", line, strings.TrimSpace(fields[3]))
		}
		if len(tr.Rows) > 0 && arrival < tr.Rows[len(tr.Rows)-1].Arrival {
			sorted = false
		}
		tr.Rows = append(tr.Rows, Row{Tenant: tenant, Arrival: arrival, Runtime: runtime, Cores: cores})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tr.Rows) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	if !sorted {
		tr.Warnings = append(tr.Warnings, "arrivals out of order: sorted rows by arrival")
		sort.SliceStable(tr.Rows, func(i, j int) bool { return tr.Rows[i].Arrival < tr.Rows[j].Arrival })
	}
	return tr, nil
}

func legacyParseDur(s string) (time.Duration, error) {
	s = strings.TrimSpace(s)
	if secs, err := strconv.ParseFloat(s, 64); err == nil {
		return time.Duration(secs * float64(time.Second)), nil
	}
	return time.ParseDuration(s)
}

func legacyLooksLikeHeader(fields []string) bool {
	for _, f := range fields {
		if strings.IndexFunc(strings.TrimSpace(f), unicode.IsLetter) < 0 {
			return false
		}
	}
	return true
}

// legacyArrivalTrace is the old cluster.ArrivalTrace.
type legacyArrivalTrace struct {
	Offsets  []time.Duration
	Cores    []int
	Tenants  []string
	Warnings []string
}

// legacyParseOffsets is the old cluster.ParseArrivalTrace.
func legacyParseOffsets(r io.Reader) (*legacyArrivalTrace, error) {
	type row struct {
		offset time.Duration
		cores  int
		tenant string
	}
	var rows []row
	var warnings []string
	sc := bufio.NewScanner(r)
	line := 0
	sorted := true
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		fields := strings.Split(s, ",")
		if len(fields) > 3 {
			return nil, fmt.Errorf("line %d: %d fields (want OFFSET[,CORES[,TENANT]])", line, len(fields))
		}
		off := strings.TrimSpace(fields[0])
		d, err := time.ParseDuration(off)
		if err != nil {
			if len(rows) == 0 && strings.IndexFunc(off, unicode.IsLetter) >= 0 {
				warnings = append(warnings, fmt.Sprintf("line %d: skipped header row %q", line, s))
				continue
			}
			return nil, fmt.Errorf("line %d: bad offset %q", line, off)
		}
		if d < 0 {
			return nil, fmt.Errorf("line %d: bad offset %q", line, off)
		}
		cores := 0
		if len(fields) >= 2 {
			if cs := strings.TrimSpace(fields[1]); cs != "" {
				c, err := strconv.Atoi(cs)
				if err != nil || c < 1 {
					return nil, fmt.Errorf("line %d: bad cores %q", line, cs)
				}
				cores = c
			}
		}
		tenant := ""
		if len(fields) == 3 {
			tenant = strings.TrimSpace(fields[2])
		}
		if len(rows) > 0 && d < rows[len(rows)-1].offset {
			sorted = false
		}
		rows = append(rows, row{offset: d, cores: cores, tenant: tenant})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	if !sorted {
		warnings = append(warnings, "arrivals out of order: sorted rows by offset")
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].offset < rows[j].offset })
	}
	tr := &legacyArrivalTrace{
		Offsets:  make([]time.Duration, len(rows)),
		Cores:    make([]int, len(rows)),
		Tenants:  make([]string, len(rows)),
		Warnings: warnings,
	}
	for i, rw := range rows {
		tr.Offsets[i] = rw.offset
		tr.Cores[i] = rw.cores
		tr.Tenants[i] = rw.tenant
	}
	return tr, nil
}
