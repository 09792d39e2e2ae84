#!/usr/bin/env bash
# Protocol refusals of a running repro HTTP service (serve or the fleet
# front door), checked from outside its process:
#   a Transfer-Encoding: chunked request  -> 400
#   a body over max_body_bytes (8 MiB)    -> 413
# Usage: ci/check_refusals.sh PORT
set -euo pipefail
port="$1"
url="http://127.0.0.1:${port}/v1/check"

code=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Transfer-Encoding: chunked' --data-binary '{"source": "x"}' "$url")
echo "chunked body: HTTP $code"
test "$code" = 400

big=$(mktemp)
trap 'rm -f "$big"' EXIT
head -c $((8 * 1024 * 1024 + 1)) /dev/zero > "$big"
code=$(curl -s -o /dev/null -w '%{http_code}' --data-binary @"$big" "$url")
echo "oversized body: HTTP $code"
test "$code" = 413
