(* Applying a fault plan to a concrete graph: the compiled form the
   runners consult on their hot paths, plus the Def. 2.4-style
   verification of a partial labeling on the healthy subgraph.

   Blocking is symmetric by construction: a half-edge (v, p) is blocked
   iff its edge is severed, or either endpoint is crashed — so BFS view
   extraction never smuggles information across a dead link from
   either side. *)

type status =
  | Ok                      (* output produced from a pristine view *)
  | Crashed                 (* crash-stop: no output by fiat *)
  | Starved                 (* output attempt on a degraded/partial view
                               failed for lack of information, or (for
                               LOCAL nodes) output produced from a view
                               that faults made strictly smaller *)
  | Errored of Error.t      (* the algorithm itself failed at this node *)

let status_ok = function Ok | Starved -> true | Crashed | Errored _ -> false

type tally = { n_ok : int; n_crashed : int; n_starved : int; n_errored : int }

let tally statuses =
  let ok = ref 0 and cr = ref 0 and st = ref 0 and er = ref 0 in
  Array.iter
    (function
      | Ok -> incr ok
      | Crashed -> incr cr
      | Starved -> incr st
      | Errored _ -> incr er)
    statuses;
  { n_ok = !ok; n_crashed = !cr; n_starved = !st; n_errored = !er }

let status_string = function
  | Ok -> "ok"
  | Crashed -> "crashed"
  | Starved -> "starved"
  | Errored _ -> "errored"

let pp_status ppf = function
  | Errored e -> Fmt.pf ppf "errored(%a)" Error.pp e
  | s -> Fmt.string ppf (status_string s)

type compiled = {
  plan : Plan.t;
  crashed : bool array;        (* per host node *)
  blocked : bool array array;  (* per host node, per port; [[||]] when
                                  nothing is cut — consult only through
                                  [is_blocked] / [node_degraded] *)
  any_blocked : bool;          (* false = pristine extraction fast path *)
  severed_live : int;          (* severed edges that exist in the graph *)
  ids_patch : (int * int) array;
  rand_patch : (int * int64) array;
  probe_tbl : (int, int list) Hashtbl.t; (* node -> lost-probe ordinals *)
}

(** Compile [plan] against [g]: validates node ranges (F301) and
    precomputes the per-port blocking table. A plan that cuts nothing
    (no crashes, no severed edges) skips the O(n·Δ) table entirely —
    the resilient runners must cost next to nothing when faults are
    off, and that table build would dominate small workloads. *)
let m_compiled = Obs.Metrics.counter "fault.plans_compiled"
let m_verifications = Obs.Metrics.counter "fault.healthy_verifications"

let compile plan g =
  Obs.Span.with_ "fault.compile" @@ fun () ->
  Obs.Metrics.incr m_compiled;
  match Plan.validate plan ~n:(Graph.n g) with
  | Error e -> Error e
  | Ok () ->
    let n = Graph.n g in
    let crashed = Array.make n false in
    Array.iter (fun v -> crashed.(v) <- true) plan.Plan.crashed;
    let nothing_cut =
      Array.length plan.Plan.crashed = 0 && Array.length plan.Plan.severed = 0
    in
    let severed = Hashtbl.create 16 in
    Array.iter (fun e -> Hashtbl.replace severed e ()) plan.Plan.severed;
    let severed_live = ref 0 in
    let any = ref false in
    let blocked =
      if nothing_cut then [||]
      else
        Array.init n (fun v ->
            Array.init (Graph.degree g v) (fun p ->
                let u = Graph.neighbor g v p in
                let cut =
                  crashed.(v) || crashed.(u)
                  || Hashtbl.mem severed (min v u, max v u)
                in
                if cut then any := true;
                cut))
    in
    if not nothing_cut then
      List.iter
        (fun (u, v) ->
          if u < n && v < n then begin
            let e = (min u v, max u v) in
            if Hashtbl.mem severed e then begin
              incr severed_live;
              Hashtbl.remove severed e (* count each live edge once *)
            end
          end)
        (Graph.edges g);
    let probe_tbl = Hashtbl.create 16 in
    Array.iter
      (fun (v, k) ->
        Hashtbl.replace probe_tbl v
          (List.sort compare
             (k :: Option.value (Hashtbl.find_opt probe_tbl v) ~default:[])))
      plan.Plan.probe_faults;
    Ok
      {
        plan;
        crashed;
        blocked;
        any_blocked = !any;
        severed_live = !severed_live;
        ids_patch = plan.Plan.corrupt_ids;
        rand_patch = plan.Plan.rand_flips;
        probe_tbl;
      }

let is_crashed c v = c.crashed.(v)
let is_blocked c v p = c.any_blocked && c.blocked.(v).(p)

(** Some incident half-edge of [v] is blocked (its radius-1 view is
    already degraded). *)
let node_degraded c v = c.any_blocked && Array.exists Fun.id c.blocked.(v)

(** Identifiers after adversarial reassignment (fresh array). *)
let apply_ids c ids =
  let out = Array.copy ids in
  Array.iter (fun (v, id) -> if v < Array.length out then out.(v) <- id) c.ids_patch;
  out

(** Per-node randomness after bit flips (fresh array). *)
let apply_rand c rand =
  let out = Array.copy rand in
  Array.iter
    (fun (v, m) -> if v < Array.length out then out.(v) <- Int64.logxor out.(v) m)
    c.rand_patch;
  out

(** Is the [ordinal]-th probe (1-based) issued by the query at [node]
    lost? *)
let probe_fails c ~node ~ordinal =
  match Hashtbl.find_opt c.probe_tbl node with
  | None -> false
  | Some ks -> List.mem ordinal ks

(* -- healthy-subgraph verification ------------------------------------- *)

(* The healthy subgraph H of (g, plan, statuses): nodes that produced
   an output (Ok/Starved), edges whose endpoints both did and that are
   not blocked. Verifying the partial labeling means verifying its
   restriction to H — crashed nodes impose nothing (they are gone), a
   node whose neighbor crashed is checked at its *reduced* degree (the
   paper's node constraint at the degree it has in H), and nothing is
   checked across a severed edge. This is exactly the Def. 2.4 events
   restricted to the surviving subgraph. *)

type healthy = {
  sub : Graph.t;
  host_of_node : int array;            (* sub node -> host node *)
  host_of_port : (int * int) array array; (* sub (node, port) -> host (v, p) *)
}

(** Build H and the index maps. [has_output v] says whether host node
    [v] produced a labeling row (its status is Ok or Starved). *)
let healthy_subgraph c g ~has_output =
  let n = Graph.n g in
  let live v = has_output v && not c.crashed.(v) in
  let sub_index = Array.make n (-1) in
  let sub_n = ref 0 in
  for v = 0 to n - 1 do
    if live v then begin
      sub_index.(v) <- !sub_n;
      incr sub_n
    end
  done;
  let host_of_node = Array.make !sub_n 0 in
  for v = 0 to n - 1 do
    if sub_index.(v) >= 0 then host_of_node.(sub_index.(v)) <- v
  done;
  (* deterministic edge order: host node-major, port-major *)
  let edges = ref [] in
  for v = n - 1 downto 0 do
    if live v then
      for p = Graph.degree g v - 1 downto 0 do
        let u = Graph.neighbor g v p and q = Graph.neighbor_port g v p in
        if (v < u || (v = u && p < q)) && live u && not (is_blocked c v p) then
          edges := ((v, p), (u, q)) :: !edges
      done
  done;
  let edges = !edges in
  let sub =
    Graph.of_edges ~self_loops:true ~n:!sub_n ~delta:(Graph.delta g)
      (List.map (fun ((v, _), (u, _)) -> (sub_index.(v), sub_index.(u))) edges)
  in
  (* replay [of_edges] port assignment to map sub half-edges back *)
  let host_of_port =
    Array.init !sub_n (fun sv -> Array.make (Graph.degree sub sv) (0, 0))
  in
  let next = Array.make !sub_n 0 in
  List.iter
    (fun ((v, p), (u, q)) ->
      let sv = sub_index.(v) and su = sub_index.(u) in
      if sv = su then begin
        let c0 = next.(sv) in
        host_of_port.(sv).(c0) <- (v, p);
        host_of_port.(sv).(c0 + 1) <- (u, q);
        next.(sv) <- c0 + 2
      end
      else begin
        host_of_port.(sv).(next.(sv)) <- (v, p);
        host_of_port.(su).(next.(su)) <- (u, q);
        next.(sv) <- next.(sv) + 1;
        next.(su) <- next.(su) + 1
      end)
    edges;
  (* carry inputs and tags over so verification sees the host data *)
  Array.iteri
    (fun sv ports ->
      Array.iteri
        (fun sp (v, p) ->
          Graph.set_input sub sv sp (Graph.input g v p);
          Graph.set_edge_tag sub sv sp (Graph.edge_tag g v p))
        ports)
    host_of_port;
  { sub; host_of_node; host_of_port }

let verify_healthy_sub c g ~problem ~labeling ~has_output =
  let h = healthy_subgraph c g ~has_output in
  let sub_labeling =
    Array.map
      (fun ports -> Array.map (fun (v, p) -> labeling.(v).(p)) ports)
      h.host_of_port
  in
  let back = function
    | Lcl.Verify.Bad_node sv -> Lcl.Verify.Bad_node h.host_of_node.(sv)
    | Lcl.Verify.Bad_edge (sv, sp) ->
      let v, p = h.host_of_port.(sv).(sp) in
      Lcl.Verify.Bad_edge (v, p)
    | Lcl.Verify.Bad_g (sv, sp) ->
      let v, p = h.host_of_port.(sv).(sp) in
      Lcl.Verify.Bad_g (v, p)
  in
  List.map back (Lcl.Verify.violations problem h.sub sub_labeling)

(** Violations of the partial [labeling] on the healthy subgraph,
    reported in host-graph coordinates. Rows of nodes without output
    are ignored. *)
let verify_healthy c g ~problem ~labeling ~has_output =
  Obs.Span.with_ "fault.verify_healthy" @@ fun () ->
  Obs.Metrics.incr m_verifications;
  (* Identity fast path: nothing cut and every node produced output
     means H = g, so verify in place — building the induced copy would
     double the allocation of a fault-free resilient run. *)
  let n = Graph.n g in
  let all_output =
    let rec go v = v >= n || (has_output v && go (v + 1)) in
    go 0
  in
  if (not c.any_blocked) && Array.length c.plan.Plan.crashed = 0 && all_output
  then Lcl.Verify.violations problem g labeling
  else verify_healthy_sub c g ~problem ~labeling ~has_output
