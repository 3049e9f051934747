#!/usr/bin/env bash
# Runs a cluster file the way a deployment does: one mrp_node process per
# node id, started together, each with its own NodeRuntime and
# UdpTransport. Exits 0 only when every process exited 0.
#
#   tests/mrp_node_cluster.sh <mrp_node binary> <cluster file> <nodes> <seconds>
set -u

if [ "$#" -ne 4 ]; then
  echo "usage: $0 <mrp_node binary> <cluster file> <nodes> <seconds>" >&2
  exit 2
fi
bin=$1 cfg=$2 nodes=$3 seconds=$4

pids=()
for ((id = 0; id < nodes; ++id)); do
  "$bin" --config "$cfg" --id "$id" --seconds "$seconds" &
  pids+=("$!")
done
status=0
for id in "${!pids[@]}"; do
  if ! wait "${pids[$id]}"; then
    echo "mrp_node --id $id failed" >&2
    status=1
  fi
done
exit "$status"
