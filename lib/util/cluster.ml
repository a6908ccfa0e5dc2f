(* Fork-based multi-process backend. See cluster.mli for the contract.

   Design mirrors [Parallel] deliberately: the same block_bounds
   decomposition and rank-order reassembly are what make a cluster run
   bit-identical to a single-process one for pure per-range functions.
   The transport is one [Framing] frame per worker over a socketpair —
   workers answer exactly once, so there is no multiplexing and EOF
   before the answer is an unambiguous "worker died" signal.

   The halo problem — a boundary node's radius-T ball reaching into a
   neighbor shard — is solved by fork semantics: every child holds the
   whole CSR graph copy-on-write, so cross-shard reads are plain array
   loads. Nothing is shipped back but the per-range result and, when
   tracing is on, the spans and metrics the worker recorded. *)

let env_var = "LCL_WORKERS"
let kill_env_var = "LCL_CLUSTER_KILL_RANK"
let stall_env_var = "LCL_CLUSTER_STALL_RANK"
let stall_ms_env_var = "LCL_CLUSTER_STALL_MS"
let timeout_env_var = "LCL_CLUSTER_TIMEOUT_MS"

(* Unlike [Parallel.default_domains], the env value is NOT capped at
   the core count: worker processes share no runtime, so
   oversubscription is ordinary preemptive scheduling (and the
   bit-identical-merge property must be testable at 4 workers on any
   machine). The bound only guards against a fork bomb from a
   nonsensical setting. *)
let max_workers = 256

let default_workers () =
  match Sys.getenv_opt env_var with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some w when w >= 1 -> min w max_workers
    | _ -> 1)

let block_bounds ~n ~workers b = Parallel.block_bounds ~n ~d:workers b

exception
  Worker_error of { rank : int; lo : int; hi : int; message : string }

let () =
  Printexc.register_printer (function
    | Worker_error { rank; lo; hi; message } ->
      Some
        (Printf.sprintf "Cluster.Worker_error rank %d (range [%d,%d)): %s"
           rank lo hi message)
    | _ -> None)

let resolve workers =
  match workers with Some w -> max 1 w | None -> default_workers ()

(* The OCaml 5 runtime refuses [Unix.fork] in a process that has EVER
   created a domain (even joined ones): multi-process and in-process
   multi-domain execution compose only child-side — fork first, spawn
   domains inside the workers. [can_fork] feature-detects with a probe
   fork, because the runtime exposes no "domains were created" query;
   [map_ranges] falls back to in-process evaluation when forking is
   unavailable, so a mixed workload (e.g. a test suite that ran the
   domain engine before the cluster engages) degrades to the
   bit-identical single-process result instead of failing. *)
let can_fork () =
  Sys.unix
  &&
  match Unix.fork () with
  | 0 -> Unix._exit 0
  | pid ->
    let rec reap () =
      match Unix.waitpid [] pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ();
    true
  | exception _ -> false

let kill_rank () =
  match Sys.getenv_opt kill_env_var with
  | None -> None
  | Some s -> int_of_string_opt (String.trim s)

let stall_rank () =
  match Sys.getenv_opt stall_env_var with
  | None -> None
  | Some s -> int_of_string_opt (String.trim s)

(* How long a stalled chaos worker sleeps before computing: long
   enough that any sane per-worker timeout reaps it first. *)
let stall_seconds () =
  match Sys.getenv_opt stall_ms_env_var with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some ms when ms >= 0 -> float_of_int ms /. 1000.
    | _ -> 600.)
  | None -> 600.

(* Per-worker drain timeout when [map_ranges ?timeout_s] is omitted:
   a process-global default (the serve daemon sets it once at startup
   so every nested cluster call inherits it), seeded from
   [$LCL_CLUSTER_TIMEOUT_MS]. [None] = wait forever (the seed
   behaviour). *)
let default_timeout_s : float option ref =
  ref
    (match Sys.getenv_opt timeout_env_var with
    | None -> None
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some ms when ms > 0 -> Some (float_of_int ms /. 1000.)
      | _ -> None))

let set_default_timeout t = default_timeout_s := t
let default_timeout () = !default_timeout_s

(* Process-global count of ranges recovered in-process after their
   worker died or was reaped on timeout — the serve engine samples it
   around a computation to tag answers that took the degraded path. *)
let recoveries_total = ref 0
let recoveries () = !recoveries_total

let m_deaths = Obs.Metrics.counter "cluster.worker.deaths"
let m_timeouts = Obs.Metrics.counter "cluster.worker.timeouts"
let m_recovered = Obs.Metrics.counter "cluster.recovered"

(* A worker's trace: the spans and non-zero metrics it recorded itself
   (empty when tracing is off). *)
type trace = Obs.Span.event list * (string * Obs.Metrics.value) list

let collect_trace () : trace =
  if Obs.enabled () then
    ( Obs.Span.collect (),
      List.filter
        (fun (_, v) -> not (Obs.Metrics.is_zero v))
        (Obs.Metrics.snapshot ()) )
  else ([], [])

(* What came back over a worker's socket. [Died] covers EOF before the
   answer, a torn frame, and a reaped stall alike: in every case the
   child is gone and the range must be recomputed. *)
type 'a answer = Answered of (('a, string) result * trace) | Died

type drained = Frame of string | Eof | Timed_out

(* Read one answer frame, optionally bounded by a wall deadline. The
   bounded path goes through the incremental decoder over a
   non-blocking fd so a worker stalled MID-frame is caught too — a
   blocking [read_frame] would wedge on it forever. *)
let drain_answer rd ~deadline =
  match deadline with
  | None -> (
    match Framing.read_frame rd with
    | Some payload -> Frame payload
    | None -> Eof
    | exception Framing.Corrupt _ -> Eof)
  | Some dl -> (
    Unix.set_nonblock rd;
    let dec = Framing.decoder () in
    let scratch = Bytes.create 65536 in
    let rec loop () =
      match Framing.next dec with
      | Some payload -> Frame payload
      | None ->
        let now = Unix.gettimeofday () in
        if now >= dl then Timed_out
        else begin
          (match Unix.select [ rd ] [] [] (min 0.1 (dl -. now)) with
          | [], _, _ -> ()
          | _ -> (
            match Unix.read rd scratch 0 (Bytes.length scratch) with
            | 0 -> raise Exit
            | k -> Framing.feed dec (Bytes.sub_string scratch 0 k) ~pos:0 ~len:k
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
        end
    in
    try loop () with Exit -> Eof | Framing.Corrupt _ -> Eof)

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    (* a SIGCHLD reaper (the serve daemon installs one) may have
       collected the child already *)
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let run_child ~rank ~lo ~hi wr f =
  (match kill_rank () with
  | Some r when r = rank -> Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ());
  (match stall_rank () with
  | Some r when r = rank -> Unix.sleepf (stall_seconds ())
  | _ -> ());
  (* drop the trace state copied from the parent, so the frame carries
     only what this worker recorded *)
  if Obs.enabled () then Obs.reset ();
  let result = try Ok (f lo hi) with e -> Error (Printexc.to_string e) in
  (try
     let payload =
       try Marshal.to_string (result, collect_trace ()) []
       with e ->
         Marshal.to_string
           ( (Error (Printf.sprintf "unmarshalable worker result: %s"
                       (Printexc.to_string e))
               : (_, string) result),
             (([], []) : trace) )
           []
     in
     Framing.write_frame wr payload
   with _ -> ());
  (* _exit, not exit: the child must not run the parent's at_exit
     handlers (test reporters, output flushing) on copied state *)
  Unix._exit 0

let map_ranges ?workers ?timeout_s ?on_recover ?recover ~n f =
  let w = min (resolve workers) (max 1 n) in
  let timeout_s =
    match timeout_s with Some _ as t -> t | None -> !default_timeout_s
  in
  let on_recover = Option.value on_recover ~default:(fun _ -> ()) in
  let recover = Option.value recover ~default:f in
  let in_process which =
    Array.init (max 1 w) (fun b ->
        let lo, hi = block_bounds ~n ~workers:(max 1 w) b in
        which lo hi)
  in
  if w <= 1 || not Sys.unix then in_process f
  else if not (can_fork ()) then
    (* fork unavailable (a domain was created in this process):
       degrade to in-process rank-order evaluation — [recover], not
       [f], because [f] may perform child-only setup *)
    in_process recover
  else begin
    let spawn rank =
      let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.fork () with
      | 0 ->
        Unix.close rd;
        let lo, hi = block_bounds ~n ~workers:w rank in
        run_child ~rank ~lo ~hi wr f
      | pid ->
        Unix.close wr;
        (pid, rd)
      | exception e ->
        Unix.close rd;
        Unix.close wr;
        raise e
    in
    let children = Array.init w spawn in
    (* Drain in rank order: later workers block in [write] until their
       turn, which is harmless — their compute is already done — and
       it keeps peak parent-side buffering at one frame. Each rank's
       drain is bounded by [timeout_s] (measured from when its turn
       starts — all ranks compute concurrently, so a healthy later
       rank has typically already answered); a rank that exceeds it is
       SIGKILLed and recomputed like any dead worker. *)
    let answers =
      Array.map
        (fun (pid, rd) ->
          let deadline =
            Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s
          in
          let a =
            match drain_answer rd ~deadline with
            | Frame payload -> Answered (Marshal.from_string payload 0)
            | Eof ->
              Obs.Metrics.incr m_deaths;
              Died
            | Timed_out ->
              Obs.Metrics.incr m_timeouts;
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              Died
          in
          Unix.close rd;
          reap pid;
          a)
        children
    in
    (* All workers reaped; now resolve. Failures surface lowest rank
       first, matching [Parallel]'s lowest-index rule. *)
    Array.iteri
      (fun rank a ->
        match a with
        | Answered (Error message, _) ->
          let lo, hi = block_bounds ~n ~workers:w rank in
          raise (Worker_error { rank; lo; hi; message })
        | _ -> ())
      answers;
    let results =
      Array.mapi
        (fun rank a ->
          match a with
          | Answered (Ok v, _) -> v
          | Answered (Error _, _) -> assert false
          | Died ->
            incr recoveries_total;
            Obs.Metrics.incr m_recovered;
            on_recover rank;
            let lo, hi = block_bounds ~n ~workers:w rank in
            recover lo hi)
        answers
    in
    (* Worker traces join the parent's in rank order, after every
       recovery: [Obs.Span.absorb] ranks foreign groups in absorb
       order, which keeps a cluster trace byte-stable. A recovered
       range traced straight into the parent. *)
    Array.iter
      (function
        | Answered (_, (events, metrics)) ->
          Obs.Span.absorb events;
          Obs.Metrics.absorb metrics
        | Died -> ())
      answers;
    results
  end
