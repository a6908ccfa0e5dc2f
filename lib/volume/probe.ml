(* The VOLUME model (Definitions 2.8 and 2.9). An algorithm answers a
   query about one node by *adaptively probing*: it starts from the
   queried node's local tuple (identifier, degree, per-port inputs) and
   repeatedly asks for the node behind port p of the j-th node it has
   already seen; after at most T(n) probes it must output the labels of
   the queried node's half-edges. Unlike the LOCAL model it pays per
   node seen, not per hop of radius — the distinction Theorem 1.3
   exploits.

   The tuple contents follow Definition 2.8: (id, deg, in) where [in]
   assigns an input label to each port. Orientation marks and similar
   structural annotations enter through the input labels, as in the
   paper's LCL formalism (inputs live on half-edges). *)

type tuple = {
  id : int;
  degree : int;
  inputs : int array; (* per-port input labels; -1 = unlabeled *)
}

type decision =
  | Probe of int * int  (* probe port p of the j-th discovered node *)
  | Output of int array (* output labels for the queried node's ports *)

type t = {
  name : string;
  budget : n:int -> int; (* declared probe complexity T(n) *)
  decide : n:int -> tuple array -> decision;
}

exception Budget_exceeded of { algo : string; node : int; budget : int }
exception Bad_probe of string

let tuple_of g ~ids v =
  {
    id = ids.(v);
    degree = Graph.degree g v;
    inputs = Array.init (Graph.degree g v) (fun p -> Graph.input g v p);
  }

(* Why a query produced no output row. [query] raises
   [Budget_exceeded]/[Bad_probe] from these, the resilient runner
   turns them into statuses. *)
type failure =
  | Over_budget of int                       (* the declared budget *)
  | Wrong_arity of int                       (* outputs returned *)
  | Unknown_node of int                      (* probed index j *)
  | No_port of { node : int; port : int }
  | Lost                                     (* probe lost to a fault *)
  | Raised of exn                            (* from [decide] *)

(* The adaptive probe loop for node [v]: the outputs or why there are
   none, and the probes spent (a lost one included). [lost ~node ~port
   ~ordinal] says whether the [ordinal]-th probe, through [port] of
   [node], is lost to a fault. *)
let probe_loop ?(lost = fun ~node:_ ~port:_ ~ordinal:_ -> false)
    ?(n_declared = -1) (a : t) g ~ids v =
  let n = if n_declared >= 0 then n_declared else Graph.n g in
  let budget = a.budget ~n in
  let discovered = ref [ (v, tuple_of g ~ids v) ] in
  let count = ref 0 in
  let rec loop () =
    let tuples = Array.of_list (List.rev_map snd !discovered) in
    match a.decide ~n tuples with
    | Output out ->
      if Array.length out <> Graph.degree g v then
        Error (Wrong_arity (Array.length out))
      else Ok out
    | Probe (j, p) ->
      incr count;
      if !count > budget then Error (Over_budget budget)
      else
        let nodes = Array.of_list (List.rev_map fst !discovered) in
        if j < 0 || j >= Array.length nodes then Error (Unknown_node j)
        else
          let u = nodes.(j) in
          if p < 0 || p >= Graph.degree g u then
            Error (No_port { node = u; port = p })
          else if lost ~node:u ~port:p ~ordinal:!count then Error Lost
          else begin
            let w = Graph.neighbor g u p in
            discovered := (w, tuple_of g ~ids w) :: !discovered;
            loop ()
          end
  in
  let r = try loop () with e -> Error (Raised e) in
  (r, !count)

(** Answer the query for node [v]: run the adaptive probe loop.
    Returns the outputs and the number of probes spent. *)
let query ?n_declared (a : t) g ~ids v =
  match probe_loop ?n_declared a g ~ids v with
  | Ok out, count -> (out, count)
  | Error f, _ -> (
    match f with
    | Over_budget budget ->
      raise (Budget_exceeded { algo = a.name; node = v; budget })
    | Wrong_arity _ -> raise (Bad_probe (a.name ^ ": wrong output arity"))
    | Unknown_node _ -> raise (Bad_probe (a.name ^ ": probe of unknown node"))
    | No_port _ -> raise (Bad_probe (a.name ^ ": probe of nonexistent port"))
    | Lost -> assert false
    | Raised e -> raise e)

type outcome = {
  labeling : int array array;
  violations : Lcl.Verify.violation list;
  max_probes : int;
  total_probes : int;
}

(* Observability handles: per-run aggregates recorded after the
   parallel section (the per-query histogram loop only runs when the
   switch is on, so the disabled path stays a no-op). *)
let m_queries = Obs.Metrics.counter "volume.queries"
let m_probes = Obs.Metrics.counter "volume.probes"
let m_per_query = Obs.Metrics.histogram "volume.probes_per_query"
let m_run_retries = Obs.Metrics.counter "volume.run_retries"
let m_ok = Obs.Metrics.counter "volume.nodes_ok"
let m_crashed = Obs.Metrics.counter "volume.nodes_crashed"
let m_starved = Obs.Metrics.counter "volume.nodes_starved"
let m_errored = Obs.Metrics.counter "volume.nodes_errored"

let resolve_workers workers =
  match workers with
  | Some w -> max 1 w
  | None -> Util.Cluster.default_workers ()

(* Exceptions escaping a worker shard, made marshalable: the budget
   and probe-validity exceptions callers pattern-match on are rebuilt
   typed in the parent; anything else degrades to its printed form
   (the [Parallel.Worker_error] wrapper is unwrapped first — its
   chunk coordinates are child-relative). *)
type wire_exn =
  | W_budget of { algo : string; node : int; budget : int }
  | W_bad_probe of string
  | W_invalid of string
  | W_failure of string
  | W_other of string

let wire_exn_of e =
  let e =
    match e with
    | Util.Parallel.Worker_error { error; _ } -> error
    | e -> e
  in
  match e with
  | Budget_exceeded { algo; node; budget } -> W_budget { algo; node; budget }
  | Bad_probe m -> W_bad_probe m
  | Invalid_argument m -> W_invalid m
  | Failure m -> W_failure m
  | e -> W_other (Printexc.to_string e)

let reraise_wire = function
  | W_budget { algo; node; budget } ->
    raise (Budget_exceeded { algo; node; budget })
  | W_bad_probe m -> raise (Bad_probe m)
  | W_invalid m -> raise (Invalid_argument m)
  | W_failure m -> raise (Failure m)
  | W_other m -> failwith ("cluster worker failed: " ^ m)

(* Cluster dispatch for the probe engines: queries are pure per node
   (they only read the host graph and the id assignment, both of
   which every forked worker holds copy-on-write), so sharding the
   node range over worker processes and concatenating in rank order
   reproduces the single-process answer array bit for bit. A worker
   that dies — or a process in which forking is unavailable — is
   recovered in-process (see [Util.Cluster], which also ships the
   workers' traces). *)
let cluster_init ~workers ~domains n f =
  let shard_rows lo hi =
    Util.Parallel.init ?domains (hi - lo) (fun i -> f (lo + i))
  in
  let shard lo hi =
    match shard_rows lo hi with
    | rows -> Ok rows
    | exception e -> Error (wire_exn_of e)
  in
  let recover lo hi = Ok (shard_rows lo hi) in
  Util.Cluster.map_ranges ~workers ~recover ~n shard
  |> Array.map (function Ok rows -> rows | Error w -> reraise_wire w)
  |> Array.to_list |> Array.concat

let parallel_init ?domains ?workers n f =
  let workers_used = min (resolve_workers workers) (max 1 n) in
  if workers_used <= 1 then Util.Parallel.init ?domains n f
  else cluster_init ~workers:workers_used ~domains n f

(** Run the algorithm for every node under the given identifier
    assignment and verify the assembled labeling against [problem].
    Per-node queries are independent (the probe loop only reads the
    host graph), so they run on the deterministic parallel engine:
    [domains] as in [Local.Runner.run] (default $LCL_DOMAINS), with
    outputs and probe counts identical for every worker count. *)
let run_with_ids ?n_declared ?domains ?workers ~problem (a : t) g ~ids =
  Obs.Span.with_ "probe.run" @@ fun () ->
  let n = Graph.n g in
  let answers =
    Obs.Span.with_ "probe.simulate" (fun () ->
        parallel_init ?domains ?workers n (fun v ->
            query ?n_declared a g ~ids v))
  in
  let labeling = Array.map fst answers in
  let max_probes = Array.fold_left (fun m (_, p) -> max m p) 0 answers in
  let total_probes = Array.fold_left (fun t (_, p) -> t + p) 0 answers in
  Obs.Metrics.add m_queries n;
  Obs.Metrics.add m_probes total_probes;
  if Obs.enabled () then
    Array.iter (fun (_, p) -> Obs.Metrics.observe m_per_query p) answers;
  let violations =
    Obs.Span.with_ "probe.verify" (fun () ->
        Lcl.Verify.violations problem g labeling)
  in
  { labeling; violations; max_probes; total_probes }

(** Same with fresh random identifiers from a cubic range. *)
let run ?(seed = 0xBEEF) ?n_declared ?domains ?workers ~problem (a : t) g =
  let rng = Util.Prng.create ~seed in
  let ids = Graph.Ids.random rng (Graph.n g) in
  run_with_ids ?n_declared ?domains ?workers ~problem a g ~ids

(* -- resilient probing --------------------------------------------------- *)

(* VOLUME under faults. A probe is *lost* when it crosses a blocked
   edge (severed, or a crashed endpoint — the compiled table is
   symmetric) or when the plan lists its 1-based ordinal for the
   querying node. A lost probe starves the query: the adaptive loop has
   no way to proceed without the answer, which is exactly the
   crash-stop/message-loss semantics — so VOLUME [Starved] nodes carry
   no output row, unlike LOCAL ones (where a degraded view still
   yields an output). Budget overruns and malformed probes become
   [Errored] statuses (F201/F202), algorithm exceptions F103; nothing
   raises across the parallel engine. *)

(* Answer one query under compiled faults: the status, the output row
   ([[||]] unless [Ok]) and the probes spent (lost ones included). *)
let query_resilient ?n_declared compiled (a : t) g ~ids v =
  if Fault.Inject.is_crashed compiled v then (Fault.Crashed, [||], 0)
  else
    let lost ~node ~port ~ordinal =
      Fault.Inject.is_blocked compiled node port
      || Fault.Inject.probe_fails compiled ~node:v ~ordinal
    in
    match probe_loop ~lost ?n_declared a g ~ids v with
    | Ok out, count -> (Fault.Ok, out, count)
    | Error f, count ->
      let status =
        match f with
        | Lost -> Fault.Starved
        | Over_budget budget ->
          Fault.Errored
            (Fault.Error.f ~node:v ~code:"F201" "%s: probe budget %d exceeded"
               a.name budget)
        | Wrong_arity k ->
          Fault.Errored
            (Fault.Error.f ~node:v ~code:"F202"
               "%s: wrong output arity (%d at degree-%d node)" a.name k
               (Graph.degree g v))
        | Unknown_node j ->
          Fault.Errored
            (Fault.Error.f ~node:v ~code:"F202"
               "%s: probe of unknown node %d" a.name j)
        | No_port { node; port } ->
          Fault.Errored
            (Fault.Error.f ~node:v ~code:"F202"
               "%s: probe of nonexistent port %d of node %d" a.name port node)
        | Raised (Fault.Error.E err) -> Fault.Errored err
        | Raised e ->
          Fault.Errored
            (Fault.Error.f ~node:v ~code:"F103" "%s raised: %s" a.name
               (Printexc.to_string e))
      in
      (status, [||], count)

type fault_report = {
  applied : Fault.Plan.t;
  statuses : Fault.status array;  (* per host node *)
  ok_nodes : int;
  crashed_nodes : int;
  starved_nodes : int;
  errored_nodes : int;
  retries_used : int;             (* whole-run re-attempts consumed *)
}

type resilient_outcome = {
  partial : int array array;      (* [||] rows unless the status is Ok *)
  healthy_violations : Lcl.Verify.violation list; (* host coordinates *)
  r_max_probes : int;
  r_total_probes : int;
  report : fault_report;
}

(** Run every query under fault [plan] and verify the surviving outputs
    on the healthy subgraph. Retrying is run-level (VOLUME queries have
    no per-node randomness — only the identifier assignment is random):
    when some node [Errored] and attempts remain, the whole run repeats
    with a fresh identifier seed. Deterministic in (graph, plan, seed)
    at any worker count. [Error] (F301) iff the plan does not fit the
    graph. *)
let run_resilient ?(seed = 0xBEEF) ?n_declared ?domains ?workers
    ?(plan = Fault.Plan.empty) ?(retries = 0) ~problem (a : t) g =
  Obs.Span.with_ "probe.run_resilient" @@ fun () ->
  match Fault.Inject.compile plan g with
  | Error e -> Error e
  | Ok compiled ->
    let n = Graph.n g in
    let attempt k =
      let rng = Util.Prng.create ~seed:(seed + (k * 7919)) in
      let ids = Fault.Inject.apply_ids compiled (Graph.Ids.random rng n) in
      Obs.Span.with_ "probe.simulate" (fun () ->
          parallel_init ?domains ?workers n (fun v ->
              query_resilient ?n_declared compiled a g ~ids v))
    in
    let rec go k =
      let answers = attempt k in
      let errored =
        Array.exists (fun (s, _, _) -> match s with Fault.Errored _ -> true | _ -> false)
          answers
      in
      if errored && k < retries then go (k + 1) else (answers, k)
    in
    let answers, attempts = go 0 in
    let statuses = Array.map (fun (s, _, _) -> s) answers in
    let partial = Array.map (fun (_, out, _) -> out) answers in
    let t = Fault.Inject.tally statuses in
    let has_output v = statuses.(v) = Fault.Ok in
    let healthy_violations =
      Obs.Span.with_ "probe.verify" (fun () ->
          Fault.Inject.verify_healthy compiled g ~problem ~labeling:partial
            ~has_output)
    in
    let total_probes =
      Array.fold_left (fun t (_, _, p) -> t + p) 0 answers
    in
    Obs.Metrics.add m_queries n;
    Obs.Metrics.add m_probes total_probes;
    Obs.Metrics.add m_run_retries attempts;
    Obs.Metrics.add m_ok t.Fault.Inject.n_ok;
    Obs.Metrics.add m_crashed t.Fault.Inject.n_crashed;
    Obs.Metrics.add m_starved t.Fault.Inject.n_starved;
    Obs.Metrics.add m_errored t.Fault.Inject.n_errored;
    if Obs.enabled () then
      Array.iter (fun (_, _, p) -> Obs.Metrics.observe m_per_query p) answers;
    Ok
      {
        partial;
        healthy_violations;
        r_max_probes =
          Array.fold_left (fun m (_, _, p) -> max m p) 0 answers;
        r_total_probes = total_probes;
        report =
          {
            applied = plan;
            statuses;
            ok_nodes = t.Fault.Inject.n_ok;
            crashed_nodes = t.Fault.Inject.n_crashed;
            starved_nodes = t.Fault.Inject.n_starved;
            errored_nodes = t.Fault.Inject.n_errored;
            retries_used = attempts;
          };
      }
