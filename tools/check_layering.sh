#!/bin/sh
# Layering check: the protocol code and the real-I/O runtime depend on
# the Clock seam (src/common/runtime.hpp), never on the network simulator.
# Fails if any file under src/common, src/obs, src/io or src/transport
# includes a src/netsim/ header, or if one of those libraries links
# chunknet_netsim.
#
#   tools/check_layering.sh [repo-root]     (default: this script's ..)
root=${1:-$(dirname "$0")/..}
status=0
for dir in common obs io transport; do
  if [ ! -d "$root/src/$dir" ]; then
    echo "layering: $root/src/$dir not found" >&2
    status=1
    continue
  fi
  if grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"src/netsim/' \
      "$root/src/$dir"; then
    status=1
  fi
  if grep -Hn 'chunknet_netsim' "$root/src/$dir/CMakeLists.txt"; then
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "layering: src/{common,obs,io,transport} must not depend on" \
       "src/netsim (see above)" >&2
fi
exit "$status"
