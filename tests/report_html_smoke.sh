#!/usr/bin/env bash
# Smoke test for `nwcreport --html=`: runs one small sampled simulation,
# renders the report, and checks the page is emitted, self-contained (no
# external scripts/stylesheets/images), and carries the expected sections —
# including the sampled-telemetry charts and health verdict from --sample=.
#
# Usage: report_html_smoke.sh <nwcsim> <nwcreport>
set -euo pipefail

NWCSIM=$1
NWCREPORT=$2
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$NWCSIM" --app=radix --system=nwcache --scale=0.02 --set memory_per_node=32768 \
  --set min_free_frames=12 --metrics="$WORK/run.metrics.json" --sample="$WORK/run.timeseries.json" \
  > /dev/null

"$NWCREPORT" --metrics="$WORK/run.metrics.json" \
  --sample="$WORK/run.timeseries.json" --html="$WORK/report.html" > /dev/null

HTML="$WORK/report.html"
[ -s "$HTML" ] || { echo "FAIL: report.html missing or empty"; exit 1; }

fail=0
expect() {
  if ! grep -q "$1" "$HTML"; then
    echo "FAIL: expected '$1' in report.html"
    fail=1
  fi
}
expect '<!DOCTYPE html>'
expect '<svg'
expect 'Execution-time breakdown'
expect 'id="timeseries"'
expect 'id="health"'
expect 'vm.free_frames'
expect 'verdict:'

# Self-contained: no external fetches of any kind.
if grep -qE '<script|src=|href=|url\(' "$HTML"; then
  echo "FAIL: report.html references external resources"
  fail=1
fi

[ "$fail" -eq 0 ] && echo "report_html_smoke: ok"
exit "$fail"
