package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
)

// Vec is an ordered name → value vector: per-category cycles, per-kind
// event counts. It marshals as a JSON object in entry order and renders
// on /metrics as one family with one series per entry (Encoder.Struct's
// by=<label> option names the label). A nil Vec is an absent signal.
type Vec []VecEntry

// VecEntry is one named value of a Vec.
type VecEntry struct {
	Name  string
	Value float64
}

// MarshalJSON writes {"name":value,...} in entry order, non-finite
// values clamped to 0 the way Finite does.
func (v Vec) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, e := range v {
		if i > 0 {
			b = append(b, ',')
		}
		name, _ := json.Marshal(e.Name)
		value, _ := json.Marshal(Finite(e.Value))
		b = append(append(append(b, name...), ':'), value...)
	}
	return append(b, '}'), nil
}

// Struct renders v — a struct or a pointer to one — as metric families,
// so the struct that holds a number is the number's one declaration.
// Each exported field tagged
//
//	prom:"name,kind[,base][,label=value...][,by=label]" help:"..."
//
// becomes the family prefix+name of that kind: integers, floats and
// bools (0/1) are one series, a HistogramSnapshot a histogram, a Vec one
// series per entry under the by= label. Labels are base (only with the
// base option), the struct's own label (a field tagged
// prom:"label-name,label"), then the fixed pairs; consecutive fields of
// one family share its header; a nil pointer or nil Vec is absent.
// Untagged struct fields are descended into, embedded ones included,
// and an untagged slice of structs renders family-major, one series per
// element. Reflection runs here, per scrape — never per request.
func (e *Encoder) Struct(prefix string, base []Label, v any) {
	e.fields(prefix, base, expand(nil, reflect.ValueOf(v), nil))
}

// labelled is one struct value with the labels its position gave it.
type labelled struct {
	v      reflect.Value
	labels []Label
}

// expand appends the struct(s) v holds — itself, through pointers, or
// its elements — each with labels plus its own label field, if any.
func expand(out []labelled, v reflect.Value, labels []Label) []labelled {
	switch v = reflect.Indirect(v); v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if name, ok := strings.CutSuffix(v.Type().Field(i).Tag.Get("prom"), ",label"); ok {
				labels = append(labels[:len(labels):len(labels)], Label{name, fmt.Sprint(v.Field(i))})
			}
		}
		out = append(out, labelled{v, labels})
	case reflect.Slice:
		if k := v.Type().Elem().Kind(); k != reflect.Struct && k != reflect.Pointer {
			break // a latency reservoir, a histogram's bounds: nothing to find
		}
		for i := 0; i < v.Len(); i++ {
			out = expand(out, v.Index(i), labels)
		}
	}
	return out
}

// fields renders rows, structs of one type, field-major.
func (e *Encoder) fields(prefix string, base []Label, rows []labelled) {
	if len(rows) == 0 {
		return
	}
	t := rows[0].v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() && !f.Anonymous { // encoding/json's rule
			continue
		}
		tag, tagged := f.Tag.Lookup("prom")
		if !tagged {
			var sub []labelled
			for _, r := range rows {
				sub = expand(sub, r.v.Field(i), r.labels)
			}
			e.fields(prefix, base, sub)
			continue
		}
		opts := strings.Split(tag, ",")
		if len(opts) < 2 || opts[1] == "label" {
			continue
		}
		name, kind, help := prefix+opts[0], opts[1], f.Tag.Get("help")
		var lead, fixed []Label
		by := ""
		for _, o := range opts[2:] {
			switch k, val, _ := strings.Cut(o, "="); {
			case o == "base":
				lead = base
			case k == "by":
				by = val
			default:
				fixed = append(fixed, Label{k, val})
			}
		}
		for _, r := range rows {
			fv := reflect.Indirect(r.v.Field(i))
			if !fv.IsValid() { // nil pointer
				continue
			}
			labels := append(append(append([]Label(nil), lead...), r.labels...), fixed...)
			switch x := fv.Interface().(type) {
			case HistogramSnapshot:
				e.Histogram(name, help, labels, x)
			case Vec:
				if x == nil {
					continue
				}
				e.header(name, help, kind)
				for _, ent := range x {
					e.series(name, e.derived(labels, by, ent.Name), ent.Value)
				}
			default:
				e.header(name, help, kind)
				e.series(name, labels, number(fv))
			}
		}
	}
}

// number reads an integer, float or bool (0/1) field as a sample value.
func number(v reflect.Value) float64 {
	switch {
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	case v.CanFloat():
		return v.Float()
	case v.Kind() == reflect.Bool && v.Bool():
		return 1
	}
	return 0
}
