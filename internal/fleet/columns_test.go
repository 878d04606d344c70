package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"cliquemap/internal/core/proto"
)

// reading is everything column c shows of st.
func reading(c *Column, st *proto.StatsResp) string {
	switch c.Kind {
	case Text:
		return c.Text(st)
	case Occupancy:
		return fmt.Sprint(c.Get(st), "/", c.Of(st))
	}
	return fmt.Sprint(c.Get(st))
}

// TestEveryStatsFieldHasOneColumn perturbs each numeric or bool field of
// StatsResp, from a base where every field is set, and counts the rows of
// Columns whose reading moves. A field no row reads is telemetry filled on
// the server and rendered by nothing (HeatTracked, StripeHeldNs and three
// more sat like that for many PRs); a field two rows read is a column
// listed twice. Both fail by name, unless listed here with the reason.
func TestEveryStatsFieldHasOneColumn(t *testing.T) {
	notAColumn := map[string]string{
		"Shard":         "the tables number rows by the config's shard order, which is what routes",
		"PendingShards": "a resize's target, shown once per pending shard by cmstat's RESIZE section",
	}
	readTwice := map[string]string{
		"Stripes": "STRIPES shows it and SKEW divides by it for the mean stripe",
	}
	base := proto.StatsResp{}
	bv := reflect.ValueOf(&base).Elem()
	for i := 0; i < bv.NumField(); i++ {
		switch f := bv.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(1000 + 7*i))
		case reflect.Int:
			f.SetInt(int64(3))
		}
	}
	for i := 0; i < bv.NumField(); i++ {
		name := bv.Type().Field(i).Name
		moved := base
		switch f := reflect.ValueOf(&moved).Elem().Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() * 3)
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Bool:
			f.SetBool(true)
		default:
			continue // not a number
		}
		var readers []string
		for j := range Columns {
			if c := &Columns[j]; reading(c, &moved) != reading(c, &base) {
				readers = append(readers, fmt.Sprintf("%s %q (%s)", c.Table, c.Head, c.Prom))
			}
		}
		want := 1
		if _, ok := notAColumn[name]; ok {
			want = 0
		}
		if _, ok := readTwice[name]; ok {
			want = 2
		}
		if len(readers) != want {
			t.Errorf("StatsResp.%s is read by %d rows %v, want %d: give it a row, or list it with the reason", name, len(readers), readers, want)
		}
	}
}

// TestColumnsWellFormed holds each row to the shape its kind promises.
func TestColumnsWellFormed(t *testing.T) {
	proms := make(map[string]bool)
	for i := range Columns {
		c := &Columns[i]
		name := fmt.Sprintf("row %d (%s %q)", i, c.Table, c.Head)
		if (c.Kind == Text) != (c.Text != nil) || (c.Kind == Text) == (c.Get != nil) || (c.Kind == Occupancy) != (c.Of != nil) {
			t.Errorf("%s: getters do not match kind %d", name, c.Kind)
		}
		if c.Head == "" && c.Watch == "" && c.Prom == "" {
			t.Errorf("%s: shown nowhere", name)
		}
		if c.Watch != "" && c.Head == "" {
			t.Errorf("%s: -watch shows a column the cumulative view lacks", name)
		}
		if c.Prom != "" {
			if proms[c.Prom] {
				t.Errorf("%s: family %s declared twice", name, c.Prom)
			}
			proms[c.Prom] = true
			if total := len(c.Prom) > 6 && c.Prom[len(c.Prom)-6:] == "_total"; total != c.Kind.Cumulative() {
				t.Errorf("%s: family %s: *_total is for the cumulative kinds, and only them", name, c.Prom)
			}
		}
	}
}

// TestRestarted: a task restarted if any cumulative column went backwards
// — one shown under -watch or not, in any of the three tables — and no
// gauge moving either way says so.
func TestRestarted(t *testing.T) {
	prev := proto.StatsResp{Gets: 100, IndexResizes: 2, NICQueueNs: 5000, ResidentKeys: 900, RPCWorkersBusy: 9}
	cur := prev
	cur.Gets, cur.ResidentKeys, cur.RPCWorkersBusy = 150, 10, 0
	if Restarted(&cur, &prev) {
		t.Error("gauges falling and counters rising read as a restart")
	}
	for name, mutate := range map[string]func(*proto.StatsResp){
		"main table, shown under -watch": func(s *proto.StatsResp) { s.Gets = 99 },
		"main table, cumulative only":    func(s *proto.StatsResp) { s.IndexResizes = 0 },
		"saturation queue time":          func(s *proto.StatsResp) { s.NICQueueNs = 4999 },
	} {
		c := cur
		mutate(&c)
		if !Restarted(&c, &prev) {
			t.Errorf("%s went backwards and no restart was flagged", name)
		}
	}
}
