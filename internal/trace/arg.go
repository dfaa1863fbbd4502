package trace

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Arg is one key/value annotation on an event. Args are kept ordered so that
// exports are deterministic. The value is typed, not boxed: an int lives in
// Val, a string in Str, a bool in Val as 0 or 1, and Kind says which. The
// zero Kind is an int, so Arg{Key: "bytes", Val: 8192} is an int argument.
// Nothing on the path from an instrumented call site to the exported or
// stored bytes allocates per argument.
type Arg struct {
	Key  string
	Val  int64
	Str  string
	Kind ArgKind
}

// ArgKind is the type of an Arg's value.
type ArgKind uint8

// Argument kinds.
const (
	KindInt ArgKind = iota
	KindStr
	KindBool
)

// Int is an integer argument.
func Int(key string, v int64) Arg { return Arg{Key: key, Val: v} }

// Str is a string argument.
func Str(key, v string) Arg { return Arg{Key: key, Str: v, Kind: KindStr} }

// Bool is a boolean argument.
func Bool(key string, v bool) Arg {
	a := Arg{Key: key, Kind: KindBool}
	if v {
		a.Val = 1
	}
	return a
}

// appendValue appends a's value as JSON: a number, a string or true/false.
func (a Arg) appendValue(dst []byte) []byte {
	switch a.Kind {
	case KindStr:
		return AppendString(dst, a.Str)
	case KindBool:
		return strconv.AppendBool(dst, a.Val != 0)
	}
	return strconv.AppendInt(dst, a.Val, 10)
}

// appendText appends a's value as CSV text: what fmt's %v prints for it.
func (a Arg) appendText(dst []byte) []byte {
	switch a.Kind {
	case KindStr:
		return append(dst, a.Str...)
	case KindBool:
		return strconv.AppendBool(dst, a.Val != 0)
	}
	return strconv.AppendInt(dst, a.Val, 10)
}

// AppendJSON appends a in the run store's form, {"k":key,"v":value} —
// recorder.SpanArg is this type — byte for byte what MarshalJSON returns.
func (a Arg) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"k":`...)
	dst = AppendString(dst, a.Key)
	dst = append(dst, `,"v":`...)
	return append(a.appendValue(dst), '}')
}

// MarshalJSON encodes a as AppendJSON does.
func (a Arg) MarshalJSON() ([]byte, error) { return a.AppendJSON(nil), nil }

// UnmarshalJSON decodes the run store's form. The value must be a JSON
// string, true or false, or an integer that fits an int64; anything else
// (a fraction or exponent, null, an object or array, a missing "v") is an
// error naming the key, so a stored int comes back exact, never as a float.
func (a *Arg) UnmarshalJSON(b []byte) error {
	var raw struct {
		K string          `json:"k"`
		V json.RawMessage `json:"v"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	v := raw.V
	*a = Arg{Key: raw.K}
	switch {
	case len(v) == 0:
		return fmt.Errorf("trace: arg %q has no value", raw.K)
	case v[0] == '"':
		a.Kind = KindStr
		return json.Unmarshal(v, &a.Str)
	case string(v) == "true", string(v) == "false":
		*a = Bool(raw.K, v[0] == 't')
		return nil
	}
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return fmt.Errorf("trace: arg %q: value %.40s is not an int64, string or bool", raw.K, v)
	}
	a.Val = n
	return nil
}
