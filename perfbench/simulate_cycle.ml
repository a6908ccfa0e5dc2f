(* simulate-cycle: Cole–Vishkin 3-coloring of an oriented cycle through
   [Local.Runner.run], one domain and one process, a fresh seed per op.
   Loads Graph.Builder, Graph.Ball and Local.Runner (plus Local.Sync in
   the traced run); bypasses the daemon, the wire, the cache and
   relim. *)

open Common

let n = 1 lsl 16
let problem = Lcl.Zoo.coloring ~k:3 ~delta:2
let algo = Local.Cole_vishkin.three_coloring

(* Set-ups per run, and the fewest timed ops, which fixes the tail
   percentile. *)
let setups = 3
let min_ops = 30

(* Distinct per (workload seed, op index): no two ops of a run share a
   seed. *)
let op_seed ~seed i = ((seed land 0xfffff) lsl 20) lor i

let runner_op ~seed g i =
  Local.Runner.run ~seed:(op_seed ~seed i) ~domains:1 ~workers:1 ~problem algo g

let runner_attrs ((o : Local.Runner.outcome), gc) =
  let s = o.Local.Runner.stats in
  [
    ("simulate_s", s.Local.Runner.simulate_seconds);
    ("verify_s", s.Local.Runner.verify_seconds);
    ( "other_s",
      s.Local.Runner.total_seconds -. s.Local.Runner.simulate_seconds
      -. s.Local.Runner.verify_seconds );
    ("balls_extracted", float s.Local.Runner.balls_extracted);
    ("radius", float o.Local.Runner.radius_used);
  ]
  @ gc

(* Views of every node at the op's radius, without the algorithm: the
   extraction share of [runner.simulate_s]. *)
let extract_all g ~radius =
  let ids = Array.init n Fun.id and rand = Array.make n 0L in
  for v = 0 to n - 1 do
    ignore (Graph.Ball.extract ~reuse:true g ~ids ~rand ~n_declared:n v ~radius)
  done

let run ~check ~corrupt ~seed ~seconds =
  (* the expected answer of every op: no violations (one, when the
     negative control corrupts it) *)
  let expected = if corrupt then 1 else 0 in
  let ok (o : Local.Runner.outcome) =
    check (List.length o.Local.Runner.violations = expected)
  in
  (* one set-up: build the graph and run one untimed warm-up op; only
     the last set-up's graph stays alive *)
  let last = ref None in
  let setup k =
    last := None;
    let t0 = now () in
    let g =
      Trace.with_ ~op:(-1) "graph.build" (fun () ->
          Graph.Builder.oriented_cycle n)
    in
    ok (runner_op ~seed g k);
    last := Some g;
    now () -. t0
  in
  let setup_times = List.init setups setup in
  let g = Option.get !last in
  let untraced = ref [] and traced = ref [] in
  let op i =
    if Report.traced_op i then begin
      let (o, _), l =
        time (fun () ->
            Trace.with_ ~op:i "runner.run" ~attrs:runner_attrs (fun () ->
                gc_delta (fun () -> runner_op ~seed g i)))
      in
      ok o;
      traced := l :: !traced;
      Trace.with_ ~op:i "ball.extract" (fun () ->
          extract_all g ~radius:o.Local.Runner.radius_used);
      let _, violations =
        Trace.with_ ~op:i "sync.run_and_verify" (fun () ->
            Local.Sync.run_and_verify ~seed:(op_seed ~seed i) ~problem
              Local.Cole_vishkin.spec g)
      in
      check (violations = [])
    end
    else begin
      let o, l = time (fun () -> runner_op ~seed g i) in
      ok o;
      untraced := l :: !untraced
    end
  in
  let ops, timed_s = Report.timed_loop ~seconds ~min_ops ~min_traced:6 ~first:setups op in
  let lat = List.rev (if !Trace.on then !traced else !untraced) in
  let med name = median (Trace.durations name) in
  let run_attr key = median (Trace.attrs "runner.run" key) in
  {
    Report.setups = setup_times;
    lat;
    work = float (n * ops);
    timed_s;
    tail_pct = tail_percentile ~ops:min_ops;
    peak_rss_mb = peak_rss_mb "self";
    layers =
      [
        ("graph.build_s", med "graph.build");
        ("runner.simulate_s", run_attr "simulate_s");
        ("runner.verify_s", run_attr "verify_s");
        ("runner.other_s", run_attr "other_s");
        ("ball.extract_s", med "ball.extract");
        ("sync.run_and_verify_s", med "sync.run_and_verify");
        ("runner.balls_extracted", run_attr "balls_extracted");
        ("runner.radius", run_attr "radius");
        ("gc.minor_words", run_attr "minor_words");
        ("gc.major_collections", run_attr "major_collections");
        ("trace.overhead_pct", Report.overhead ~untraced:!untraced ~traced:!traced);
      ];
    info = [ ("n", string_of_int n); ("ops", string_of_int ops) ];
  }
