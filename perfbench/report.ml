(* What one workload run hands back to bench.ml. *)

type t = {
  setups : float list;  (** seconds of each complete set-up *)
  lat : float list;  (** seconds of each timed op *)
  work : float;  (** work units (nodes, requests, problems) timed *)
  timed_s : float;  (** wall time of the timed phase *)
  tail_pct : float;  (** the percentile [tail_ms] reports *)
  peak_rss_mb : float;  (** of the benchmark process *)
  layers : (string * float) list;  (** per-layer metrics (traced run) *)
  info : (string * string) list;  (** extra facts, values already JSON *)
}

(* Ops of the traced run alternate untraced and traced, so the tracing
   overhead is a paired comparison inside one process. *)
let traced_op i = !Common.Trace.on && i mod 2 = 1

(* Tracing overhead in percent: the median, over adjacent pairs of an
   untraced and a traced op (or block, or sweep), of the traced one's
   excess. Neighbours share the machine's speed at that moment. Both
   lists are newest first. *)
let overhead ~untraced ~traced =
  let rec pairs u t =
    match (u, t) with
    | x :: u, y :: t -> (100. *. (y -. x) /. x) :: pairs u t
    | _ -> []
  in
  Common.median (pairs (List.rev untraced) (List.rev traced))

(* Run ops [first], [first+1], ... until [seconds] have passed and at
   least [min_ops] ops are done ([min_traced] in the traced run, whose
   tail is not reported). Returns the op count and the wall time. *)
let timed_loop ~seconds ~min_ops ~min_traced ~first op =
  let min_ops = if !Common.Trace.on then min_traced else min_ops in
  let t0 = Common.now () in
  let i = ref first in
  while !i - first < min_ops || Common.now () -. t0 < seconds do
    op !i;
    incr i
  done;
  (!i - first, Common.now () -. t0)
