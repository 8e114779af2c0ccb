#!/usr/bin/env sh
# Verify that every relative markdown link and every file path mentioned in
# the documentation actually exists in the tree. Run from the repo root:
#
#   sh tools/check_docs_links.sh
#
# Exits non-zero listing the broken references.
set -u

fail=0

# 1. Relative markdown links [text](target) in the core docs.
for doc in README.md DESIGN.md EXPERIMENTS.md ROADMAP.md CHANGES.md \
           docs/ARCHITECTURE.md docs/EXPERIMENTS.md docs/OBSERVABILITY.md \
           docs/WORKLOADS.md; do
  if [ ! -f "$doc" ]; then
    echo "MISSING DOC: $doc"
    fail=1
    continue
  fi
  dir=$(dirname "$doc")
  # Extract the (target) part of each markdown link; keep local paths only.
  grep -o ']([^)]*)' "$doc" | sed 's/^](//; s/)$//' |
    grep -v '^http' | grep -v '^#' | sed 's/#.*$//' | sort -u |
    {
      bad=0
      while IFS= read -r target; do
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
          echo "BROKEN LINK: $doc -> $target"
          bad=1
        fi
      done
      exit "$bad"
    } || fail=1
done

# 2. Source/tool paths referenced in backticks by the docs must exist, so a
#    doc cannot name a deleted binary (wildcard mentions like
#    `src/util/parallel.*` are skipped).
for doc in README.md DESIGN.md EXPERIMENTS.md \
           docs/ARCHITECTURE.md docs/EXPERIMENTS.md docs/OBSERVABILITY.md \
           docs/WORKLOADS.md; do
  grep -o '`[A-Za-z0-9_./*-]*`' "$doc" | tr -d '\`' |
    grep -E '^(src|tools|tests|bench|examples|docs)/[A-Za-z0-9_./-]+$' |
    sort -u |
    {
      bad=0
      while IFS= read -r path; do
        # Accept both source files and built binaries named after one.
        if [ ! -e "$path" ] && [ ! -e "$path.cpp" ] && [ ! -e "$path.sh" ]; then
          echo "BROKEN PATH: $doc mentions $path"
          bad=1
        fi
      done
      exit "$bad"
    } || fail=1
done

# 3. Dotted instrument names in backticks in the metric-heavy docs must
#    exist in the source catalog, so metric documentation can't silently
#    rot. Many names are composed at registration time (prefix + suffix),
#    so a name is accepted when the full string — or, failing that, a
#    dotted suffix of it, down to the last segment — appears in src/
#    preceded by a quote or a dot (i.e. inside a registration literal).
for doc in docs/OBSERVABILITY.md docs/WORKLOADS.md; do
  grep -o '`[a-z][a-z0-9_.]*`' "$doc" | tr -d '\`' |
    grep -E '^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$' | sort -u |
    {
      bad=0
      while IFS= read -r name; do
        case "$name" in  # file mentions are not metrics
          *.md|*.cpp|*.hpp|*.sh|*.json|*.csv|*.html|*.ini|*.py) continue ;;
        esac
        # Normalize per-instance digits: disk0.cache -> disk.cache.
        norm=$(printf '%s' "$name" | sed 's/[0-9]*\./\./g; s/[0-9]*$//')
        found=0
        probe="$norm"
        while [ -n "$probe" ]; do
          esc=$(printf '%s' "$probe" | sed 's/\./\\./g')
          if grep -rqE "[\".]$esc" src/*/ --include='*.cpp' --include='*.hpp'; then
            found=1
            break
          fi
          case "$probe" in
            *.*) probe=${probe#*.} ;;
            *) break ;;
          esac
        done
        if [ "$found" -eq 0 ]; then
          echo "UNKNOWN METRIC: $doc mentions $name"
          bad=1
        fi
      done
      exit "$bad"
    } || fail=1
done

# 4. Continuous-telemetry and profiler names (`sampler.*`, `health.*`,
#    `profile.*`) must resolve against the src/obs sources specifically —
#    the generic suffix fallback above could accept one via an unrelated
#    literal elsewhere in src/. Accept a full registration literal in
#    src/obs/, or (for names composed at publish time, e.g.
#    health.<detector>.trips or profile.phase.<path>.wall_ms) every dotted
#    segment appearing there.
for doc in README.md docs/OBSERVABILITY.md; do
  grep -oE '`(sampler|health|profile)\.[a-z0-9_.]+`' "$doc" | tr -d '\`' | sort -u |
    {
      bad=0
      while IFS= read -r name; do
        esc=$(printf '%s' "$name" | sed 's/\./\\./g')
        if grep -rqE "\"$esc" src/obs/ --include='*.cpp' --include='*.hpp'; then
          continue
        fi
        ok=1
        for seg in $(printf '%s' "$name" | tr '.' ' '); do
          if ! grep -rq "$seg" src/obs/ --include='*.cpp' --include='*.hpp'; then
            ok=0
          fi
        done
        if [ "$ok" -eq 0 ]; then
          echo "UNKNOWN TELEMETRY NAME: $doc mentions $name"
          bad=1
        fi
      done
      exit "$bad"
    } || fail=1
done

if [ "$fail" -ne 0 ]; then
  echo "docs link check FAILED"
  exit 1
fi
echo "docs link check OK"
