package cluster

import (
	"encoding/json"
	"errors"
	"slices"
	"strconv"

	"splitserve/internal/jsonenc"
)

// JSON renders the report deterministically (same seed → same bytes): the
// bytes of json.MarshalIndent(r, "", "  ") plus a newline, written in one
// pass by AppendIndentedJSON.
func (r *Report) JSON() ([]byte, error) {
	b, err := r.AppendIndentedJSON(nil, "")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// AppendIndentedJSON appends the report to b exactly as
// json.MarshalIndent(r, prefix, "  ") writes it, so a document that nests
// the report at an indent depth can write it in place.
//
// Only the header goes through encoding/json: it is small, so the scratch
// buffer encoding/json keeps in its sync.Pool stays header-sized, whereas
// one Marshal of the whole report would park a report-sized buffer there,
// alive or not after a run depending on when the next GC cycle starts.
// The job rows, nearly all of the bytes, are written by appendJobReport,
// a hand-written encoder that follows JobReport's field order and
// omitempty rules, straight into b at their indent depth: no reflection
// and no second pass to indent. b is grown for the header, and once more
// for the rest of the rows after the first, sized from it, so the
// allocations do not grow with the number of rows. On error b is returned
// as it was passed.
func (r *Report) AppendIndentedJSON(b []byte, prefix string) ([]byte, error) {
	head := *r
	head.JobReports = nil
	h, err := json.MarshalIndent(&head, prefix, "  ")
	if err != nil {
		return b, err
	}
	// JobReports is the last field: its null is replaced by the rows.
	h, ok := jsonenc.CutNullLast(h, "job_reports", prefix)
	if !ok {
		return b, errors.New("cluster: report JSON does not end in job_reports")
	}
	rows := r.JobReports
	tail := 2*len(prefix) + 16 // the closing lines, and a caller's newline
	mark := len(b)
	b = slices.Grow(b, len(h)+tail)
	b = append(b, h...)
	switch {
	case rows == nil:
		b = append(b, "null"...)
	case len(rows) == 0:
		b = append(b, "[]"...)
	default:
		// A row's braces sit two levels below the prefix, its fields three.
		fieldNL := "\n" + prefix + "      "
		rowNL := fieldNL[:len(fieldNL)-2]
		b = append(b, '[')
		for i := range rows {
			if i > 0 {
				b = append(b, ',')
			}
			start := len(b)
			b = append(b, rowNL...)
			if b, err = appendJobReport(b, &rows[i], rowNL, fieldNL); err != nil {
				return b[:mark], err
			}
			if i == 0 {
				// Rows differ by their digits and optional fields: in the
				// bench's four workloads at seed 1 they run 575–648 bytes,
				// and the rest came to 0.98–1.06 times the first row's
				// length each. An eighth spare covers that spread.
				rest := (len(b) - start + 1) * (len(rows) - 1)
				b = slices.Grow(b, rest+rest/8+tail)
			}
		}
		b = append(b, rowNL[:len(rowNL)-2]...)
		b = append(b, ']')
	}
	return jsonenc.CloseObject(b, prefix), nil
}

// appendJobReport appends j, from its opening brace on, as
// json.MarshalIndent lays out an element of the report's job_reports
// array: fieldNL starts the line of each field, rowNL the line of the
// closing brace. The fields follow the JobReport
// struct, which TestReportJSONMatchesMarshalIndent and FuzzReportJSON
// hold this encoder to.
func appendJobReport(b []byte, j *JobReport, rowNL, fieldNL string) ([]byte, error) {
	w := fieldWriter{b: append(b, '{'), nl: fieldNL}
	w.int("id", int64(j.ID))
	w.str("name", j.Name)
	if j.Workload != "" {
		w.str("workload", j.Workload)
	}
	if j.Tenant != "" {
		w.str("tenant", j.Tenant)
	}
	w.int("cores", int64(j.Cores))
	w.int("arrival_us", j.ArrivalUS)
	w.int("start_us", j.StartUS)
	w.int("end_us", j.EndUS)
	w.int("queue_wait_us", j.QueueWaitUS)
	w.int("run_us", j.RunUS)
	w.int("deadline_us", j.DeadlineUS)
	w.float("stretch", j.Stretch)
	w.bool("slo_violated", j.SLOViolated)
	w.int("vm_executors", int64(j.VMExecutors))
	w.int("lambda_executors", int64(j.LambdaExecutors))
	w.int("vm_tasks", int64(j.VMTasks))
	w.int("lambda_tasks", int64(j.LambdaTasks))
	w.float("cost_usd", j.CostUSD)
	w.float("cost_vm_usd", j.CostVMUSD)
	w.float("cost_lambda_usd", j.CostLambdaUSD)
	if j.Failed != "" {
		w.str("failed", j.Failed)
	}
	if j.Shed != "" {
		w.str("shed", j.Shed)
	}
	if j.Delayed {
		w.bool("delayed", true)
	}
	if j.AllocPolicy != "" {
		w.str("alloc_policy", j.AllocPolicy)
	}
	if j.AllocSource != "" {
		w.str("alloc_source", j.AllocSource)
	}
	if j.PredictedRunUS != 0 {
		w.int("predicted_run_us", j.PredictedRunUS)
	}
	if j.PredictedCostUSD != 0 {
		w.float("predicted_cost_usd", j.PredictedCostUSD)
	}
	if j.RunPredErr != 0 {
		w.float("run_prediction_error", j.RunPredErr)
	}
	if j.CostPredErr != 0 {
		w.float("cost_prediction_error", j.CostPredErr)
	}
	if w.err != nil {
		return b, w.err
	}
	return append(append(w.b, rowNL...), '}'), nil
}

// fieldWriter appends the fields of one indented JSON object, each on a
// line of its own that nl starts. err keeps the first value that has no
// JSON form.
type fieldWriter struct {
	b    []byte
	nl   string
	more bool
	err  error
}

func (w *fieldWriter) key(k string) {
	if w.more {
		w.b = append(w.b, ',')
	}
	w.more = true
	w.b = append(w.b, w.nl...)
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, `": `...)
}

func (w *fieldWriter) int(k string, v int64) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, v, 10)
}

func (w *fieldWriter) str(k, v string) {
	w.key(k)
	w.b = jsonenc.AppendString(w.b, v)
}

func (w *fieldWriter) bool(k string, v bool) {
	w.key(k)
	w.b = strconv.AppendBool(w.b, v)
}

func (w *fieldWriter) float(k string, v float64) {
	w.key(k)
	var err error
	if w.b, err = jsonenc.AppendFloat(w.b, v); err != nil && w.err == nil {
		w.err = err
	}
}
