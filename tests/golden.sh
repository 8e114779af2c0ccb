#!/bin/sh
# The one golden check (docs/EXPERIMENTS.md, "Goldens"). tests/CMakeLists.txt
# registers every file under ci/ through nwc_golden(), which runs this script.
#
#   golden.sh SRC OUT STDOUT FILE... -- COMMAND...
#     Runs COMMAND from SRC, its stdout into OUT/STDOUT ("-": discarded), and
#     compares OUT/STDOUT and every OUT/FILE byte for byte with SRC/FILE. On a
#     mismatch it prints the first difference and the cp that accepts it.
#   golden.sh --orphans SRC FILE...
#     Fails naming every file under SRC/ci that is not one of FILE...
set -u

if [ "$1" = --orphans ]; then
  cd "$2" || exit 2
  shift 2
  status=0
  for f in $(find ci -type f | sort); do
    case " $* " in
      *" $f "*) ;;
      *) echo "golden: $f is compared by no test (register it with nwc_golden in tests/CMakeLists.txt)"
         status=1 ;;
    esac
  done
  exit $status
fi

src=$1 out=$2 stdout=$3
shift 3
files=
[ "$stdout" = - ] || files=$stdout
while [ "$1" != -- ]; do
  files="$files $1"
  shift
done
shift

cd "$src" || exit 2
for f in $files; do
  rm -f "$out/$f"
  mkdir -p "$(dirname "$out/$f")"
done
if [ "$stdout" = - ]; then "$@" > /dev/null; else "$@" > "$out/$stdout"; fi
rc=$?
if [ $rc -ne 0 ]; then
  echo "golden: command exited $rc: $*"
  exit 1
fi

# Prints 80 bytes of $1 from 40 before byte $2, newlines shown as spaces.
around() {
  start=$(($2 > 40 ? $2 - 40 : 1))
  tail -c +"$start" "$1" | head -c 80 | tr '\n' ' '
}

status=0
for f in $files; do
  if cmp -s "$f" "$out/$f"; then continue; fi
  status=1
  if [ ! -f "$f" ]; then
    echo "golden: $f is not committed"
  else
    first=$(cmp "$f" "$out/$f" 2>&1)
    echo "golden: $first"
    byte=$(echo "$first" | sed -nE 's/.* (byte|char) ([0-9]+).*/\2/p')
    if [ -n "$byte" ]; then
      echo "  committed: $(around "$f" "$byte")"
      echo "  new:       $(around "$out/$f" "$byte")"
    fi
  fi
  echo "  accept the new output: cp $out/$f $src/$f"
done
exit $status
