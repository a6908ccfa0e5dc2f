(** Multi-process execution backend: fork one worker process per
    contiguous index range and merge their results in rank order.

    This is the process-level twin of [Parallel]: the same
    [block_bounds] decomposition, the same rank-order reassembly, so a
    pure per-index computation produces bit-identical output for any
    worker count. Workers are full [fork]s of the caller — each child
    sees the entire host graph by copy-on-write, which is how a shard
    reads the radius-T halo balls that straddle its boundary without
    any communication. Results come back as one [Marshal]ed
    length-prefixed frame per worker over a socketpair.

    A worker that dies without answering (killed, crashed) is
    recovered: the parent recomputes that range in-process, so the
    merged result is unchanged — the property the kill-worker chaos CI
    job pins down. *)

(** Worker count source when [?workers] is omitted: [$LCL_WORKERS]. *)
val env_var : string

(** Chaos hook: when [$LCL_CLUSTER_KILL_RANK] is set to rank [r], the
    rank-[r] worker SIGKILLs itself instead of answering, exercising
    the parent's recovery path. *)
val kill_env_var : string

(** Chaos hook: when [$LCL_CLUSTER_STALL_RANK] is set to rank [r], the
    rank-[r] worker sleeps [$LCL_CLUSTER_STALL_MS] (default 600 000)
    before computing — long enough that a per-worker timeout reaps it,
    exercising the SIGKILL + recompute path. *)
val stall_env_var : string

val stall_ms_env_var : string

(** Seeds {!default_timeout} at startup (milliseconds; unset or
    unparsable = no timeout). *)
val timeout_env_var : string

(** Per-worker drain timeout used when [map_ranges ?timeout_s] is
    omitted. The serve daemon sets it once at startup so every nested
    cluster call inherits the budget without signature plumbing. *)
val set_default_timeout : float option -> unit

val default_timeout : unit -> float option

(** Ranges recovered in-process after their worker died or timed out,
    since process start. Sample before/after a computation to learn
    whether it took the degraded path. *)
val recoveries : unit -> int

(** [LCL_WORKERS], else 1. Values below 1 or unparsable fall back
    to 1. Unlike [Parallel.default_domains] the value is not capped at
    the core count — worker processes share no runtime, so
    oversubscribing is ordinary scheduling and sharding stays testable
    on small machines — only bounded at 256 against fork bombs. *)
val default_workers : unit -> int

(** Index range of rank [b] out of [workers] over [0, n):
    [[b*n/w, (b+1)*n/w)] — identical to [Parallel.block_bounds]. *)
val block_bounds : n:int -> workers:int -> int -> int * int

(** Whether this process can fork workers right now. The OCaml 5
    runtime refuses [Unix.fork] in a process that has ever created a
    domain (even a joined one), so multi-process and multi-domain
    execution compose child-side only: fork first, spawn domains
    inside the workers. Feature-detected with a probe fork. *)
val can_fork : unit -> bool

(** A worker range whose computation raised, with the worker's own
    error text (the exception crossed the process boundary as a
    string). Raised in the parent after all workers are reaped. *)
exception
  Worker_error of { rank : int; lo : int; hi : int; message : string }

(** [map_ranges ?workers ~n f] evaluates [f lo hi] for each of the
    [workers] contiguous ranges covering [0, n) — each range in a
    forked child process — and returns the per-rank results in rank
    order. With 1 worker (or [n = 0]) nothing is forked and [f] runs
    in-process.

    [f] must be pure per range. Its result crosses the process
    boundary via [Marshal], so it must not contain closures or custom
    blocks. If a child dies without answering, the parent recomputes
    its range by calling [recover lo hi] (default [f]) in-process —
    pass a distinct [recover] when [f] packs side effects into its
    result for the trip home (counter deltas, cache insertions,
    exceptions as marshalable values) that a range computed in the
    parent applies directly. When forking is unavailable (see
    [can_fork]) every range is evaluated in-process via [recover], in
    rank order — same result, one process.

    Worker traces: with [Obs] enabled, each child starts from an empty
    trace and ships the spans and non-zero metrics it recorded in its
    result frame; the parent absorbs them in rank order
    ([Obs.Span.absorb], [Obs.Metrics.absorb]) once every range is
    resolved. A recovered range records straight into the parent's
    trace.

    [timeout_s] (default {!default_timeout}) bounds each rank's drain:
    a worker that has not delivered its frame within the budget —
    measured from when its rank's turn to drain starts — is SIGKILLed
    and its range recovered in-process, exactly like a worker that
    died on its own. The bounded drain catches mid-frame stalls too
    (non-blocking decode under [select]). [on_recover] fires with the
    rank for every recovered range. *)
val map_ranges :
  ?workers:int ->
  ?timeout_s:float ->
  ?on_recover:(int -> unit) ->
  ?recover:(int -> int -> 'a) ->
  n:int ->
  (int -> int -> 'a) ->
  'a array
