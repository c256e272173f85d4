package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"gmr/internal/bio"
)

// csvHeader is the column layout of the S1 CSV export: date, the ten
// temporal variables in bio.Variables order, observed and true biomasses,
// and the train/test split flag.
func csvHeader() []string {
	h := []string{"date"}
	for _, v := range bio.Variables() {
		h = append(h, v.Name)
	}
	return append(h, "obs_bphy", "obs_bzoo", "true_bphy", "true_bzoo", "split")
}

// WriteCSV writes the S1 series (forcing, observations, truth, split) as
// CSV. Per-station raw series are not included; regenerate them with
// Generate for the "-All" baselines.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader()); err != nil {
		return err
	}
	vi := bio.VarIndex()
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
	for t := 0; t < d.Days; t++ {
		rec := []string{d.Dates[t]}
		for _, v := range bio.Variables() {
			rec = append(rec, f(d.Forcing[t][vi[v.Name]]))
		}
		split := "train"
		if t >= d.TrainEnd {
			split = "test"
		}
		rec = append(rec, f(d.ObsPhy[t]), f(d.ObsZoo[t]), f(d.TruePhy[t]), f(d.TrueZoo[t]), split)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a dataset previously written by WriteCSV. The split column
// must hold one or more "train" rows followed by one or more "test" rows;
// anything else is an error, since every consumer needs both windows. The
// returned Dataset has no StationRaw or TrueForcing series.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("dataset: CSV has no data rows")
	}
	want := csvHeader()
	if len(rows[0]) != len(want) {
		return nil, fmt.Errorf("dataset: CSV has %d columns, want %d", len(rows[0]), len(want))
	}
	for i, h := range want {
		if rows[0][i] != h {
			return nil, fmt.Errorf("dataset: CSV column %d is %q, want %q", i, rows[0][i], h)
		}
	}
	vi := bio.VarIndex()
	d := &Dataset{Days: len(rows) - 1, TrainEnd: -1}
	for t, rec := range rows[1:] {
		vals := make([]float64, len(rec)-2)
		for i, s := range rec[1 : len(rec)-1] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d column %d: %v", t+2, i+1, err)
			}
			vals[i] = v
		}
		row := make([]float64, bio.NumVars)
		for i, v := range bio.Variables() {
			row[vi[v.Name]] = vals[i]
		}
		nv := len(bio.Variables())
		obsPhy, obsZoo := vals[nv], vals[nv+1]
		row[bio.IdxBPhy], row[bio.IdxBZoo] = obsPhy, obsZoo
		d.Dates = append(d.Dates, rec[0])
		d.Forcing = append(d.Forcing, row)
		d.ObsPhy = append(d.ObsPhy, obsPhy)
		d.ObsZoo = append(d.ObsZoo, obsZoo)
		d.TruePhy = append(d.TruePhy, vals[nv+2])
		d.TrueZoo = append(d.TrueZoo, vals[nv+3])
		switch split := rec[len(rec)-1]; {
		case split == "train" && d.TrainEnd >= 0:
			return nil, fmt.Errorf("dataset: row %d: train row after the first test row", t+2)
		case split == "test" && t == 0:
			return nil, fmt.Errorf("dataset: row %d: CSV has no train rows", t+2)
		case split == "test" && d.TrainEnd < 0:
			d.TrainEnd = t
		case split != "train" && split != "test":
			return nil, fmt.Errorf("dataset: row %d: split is %q, want train or test", t+2, split)
		}
	}
	if d.TrainEnd < 0 {
		return nil, fmt.Errorf("dataset: CSV has no test rows")
	}
	return d, nil
}
