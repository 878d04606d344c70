#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end smoke of the fleet observability plane
# against real processes: three cmcell gateways serve their RPC surface
# over TCP, and cmstat -fleet scrapes, merges, and renders them in all
# three output modes (table, -json, -prom). Exits non-zero if any cell
# fails to come up, a scrape round reports a dead or stale cell, or the
# merged view is missing its core sections.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/cmcell" ./cmd/cmcell
go build -o "$BIN/cmstat" ./cmd/cmstat

PORTS=(7070 7071 7072)
NAMES=(us eu asia)
SPEC=""
for i in 0 1 2; do
  "$BIN/cmcell" -shards 2 -spares 0 -keys 200 -ops 3000 -probes 10 \
    -listen "127.0.0.1:${PORTS[$i]}" >"$BIN/cell$i.log" 2>&1 &
  SPEC+="${SPEC:+,}${NAMES[$i]}=127.0.0.1:${PORTS[$i]}"
done

# Wait for all three gateways: a scrape round counts as ready only when
# every cell answers live (no DOWN, no STALE rows).
for attempt in $(seq 1 30); do
  if OUT="$("$BIN/cmstat" -fleet "$SPEC" 2>/dev/null)" &&
     grep -q "fleet: 3/3 cells live" <<<"$OUT"; then
    break
  fi
  if [ "$attempt" -eq 30 ]; then
    echo "fleet never came live; last cell logs:" >&2
    tail -5 "$BIN"/cell*.log >&2
    exit 1
  fi
  sleep 1
done

echo "== merged table =="
echo "$OUT"
for want in "fleet: 3/3 cells live" "KIND" "SLO CLASS" "GLOBAL HOT KEY"; do
  grep -q "$want" <<<"$OUT" || { echo "table missing '$want'" >&2; exit 1; }
done
for cell in "${NAMES[@]}"; do
  grep -q "^$cell" <<<"$OUT" || { echo "table missing cell $cell" >&2; exit 1; }
done

echo "== json =="
JSON="$("$BIN/cmstat" -fleet "$SPEC" -json)"
for want in '"Round":1' '"Verdict":"ok"' '"Name":"us"' '"Name":"eu"' '"Name":"asia"' '"Hists"' '"HotKeys"'; do
  grep -q "$want" <<<"$JSON" || { echo "json missing $want" >&2; exit 1; }
done
# CellScrape.Stale is tagged `json:"stale,omitempty"`: this is the key the
# encoder emits (the stale-marker section below proves the grep can fire).
grep -q '"stale":true' <<<"$JSON" && { echo "unexpected stale cell" >&2; exit 1; }

echo "== prom =="
PROM="$("$BIN/cmstat" -fleet "$SPEC" -prom)"
for want in "cliquemap_fleet_cells 3" 'cliquemap_fleet_cell_up{cell="asia"} 1' \
            "cliquemap_fleet_op_latency_ns" "cliquemap_fleet_slo_state"; do
  grep -q "$want" <<<"$PROM" || { echo "prom missing '$want'" >&2; exit 1; }
done

# Stale-marker path. A -watch -json scraper that has seen all three cells
# live keeps running across the kill: its next round must carry the dead
# cell's last good snapshot under the very key the check above greps for.
"$BIN/cmstat" -fleet "$SPEC" -watch 1s -json >"$BIN/watch.json" 2>/dev/null &
WATCHER=$!
for attempt in $(seq 1 50); do
  [ -s "$BIN/watch.json" ] && break
  sleep 0.2
done
FIRST="$(head -1 "$BIN/watch.json")"
grep -q '"Round":1' <<<"$FIRST" || { echo "json watcher never scraped" >&2; exit 1; }
grep -q '"stale":true' <<<"$FIRST" && { echo "stale cell before the kill" >&2; exit 1; }

kill %1
for attempt in $(seq 1 30); do
  grep -q '"stale":true' "$BIN/watch.json" && break
  if [ "$attempt" -eq 30 ]; then
    echo "killed cell never surfaced as \"stale\":true in the -watch -json stream" >&2
    exit 1
  fi
  sleep 0.5
done
kill "$WATCHER"

# A scraper started after the kill has no last good snapshot to fall back
# on: the dead cell shows as DOWN (or STALE on a later round).
WATCH="$(timeout 30 "$BIN/cmstat" -fleet "$SPEC" -watch 1s 2>/dev/null | head -80 || true)"
grep -Eq "STALE as of|DOWN" <<<"$WATCH" || {
  echo "killed cell never surfaced as STALE/DOWN:" >&2
  echo "$WATCH" >&2
  exit 1
}

echo "fleet smoke OK"
