(* classify-zoo: [Classify.Landscape.classify] + [to_json] on every
   problem of [Serve.Zoo_table.all] at the default budget, in whole
   sweeps; one op is one problem. Loads Classify.Landscape,
   Classify.Cycle_path and Relim.Pipeline (which does nearly all the
   work); bypasses the simulator, the daemon, the wire and the cache. *)

open Common
module L = Classify.Landscape

let zoo = Array.of_list (List.map snd Serve.Zoo_table.all)
let size = Array.length zoo

(* Landscape.classify's default budget, so relim.pipeline_s times the
   pipeline run classify makes. *)
let max_iterations = 3
let max_labels = 200

(* Set-ups (one untimed sweep each) per run, and the fewest timed
   sweeps, which fixes the tail percentile. *)
let setups = 3
let min_sweeps = 4

let classify p =
  let t = L.classify p in
  (t, L.to_json t)

let classify_traced ~op p =
  let t = Trace.with_ ~op "landscape.classify" (fun () -> L.classify p) in
  (t, Trace.with_ ~op "landscape.to_json" (fun () -> L.to_json t))

(* The layers classify called, again on their own: the pipeline unless
   an empty degree row settled the verdict first, and the cycle/path
   automaton for input-free problems of degree >= 2. *)
let layers_alone ~op p (t : L.t) =
  (match t.L.certificate.L.lower with
  | L.L_empty_degree_row _ -> ()
  | _ ->
    ignore
      (Trace.with_ ~op "relim.pipeline"
         ~attrs:(function
           | Ok (r : Relim.Pipeline.result) ->
             let tr = r.Relim.Pipeline.trace in
             [
               ("iterations", float (List.length tr));
               ( "labels_peak",
                 float
                   (List.fold_left
                      (fun m (e : Relim.Pipeline.trace_entry) ->
                        max m e.Relim.Pipeline.labels)
                      0 tr) );
             ]
           | Error _ -> [])
         (fun () -> Relim.Pipeline.run_result ~max_iterations ~max_labels p)));
  if (not t.L.has_inputs) && t.L.delta >= 2 then
    Trace.with_ ~op "classify.cycle_path" (fun () ->
        ignore (Classify.Cycle_path.classify_path_checked p);
        ignore (Classify.Cycle_path.classify_cycle_checked p))

(* The zoo is the whole input: every seed sweeps it in the same order,
   so the heap history, and with it peak memory, repeats. *)
let run ~check ~corrupt ~seed:_ ~seconds =
  let sweep ~traced s =
    Array.init size (fun j ->
        let p = zoo.(j) in
        let op = (s * size) + j in
        let (t, json), l =
          time (fun () ->
              if traced then
                fst
                  (Trace.with_ ~op "classify.op" ~attrs:snd (fun () ->
                       gc_delta (fun () -> classify_traced ~op p)))
              else classify p)
        in
        if traced then layers_alone ~op p t;
        (json, l))
  in
  let setup () =
    let t0 = now () in
    let r = sweep ~traced:false (-1) in
    (r, now () -. t0)
  in
  let built = List.init setups (fun _ -> setup ()) in
  let expected = Array.map fst (fst (List.nth built (setups - 1))) in
  List.iter
    (fun (r, _) -> Array.iteri (fun j (js, _) -> check (js = expected.(j))) r)
    built;
  if corrupt then expected.(0) <- expected.(0) ^ " ";
  let lat = ref [] and untraced = ref [] and traced = ref [] in
  let traced_ids = ref [] in
  let op s =
    let is_traced = Report.traced_op s in
    let r = sweep ~traced:is_traced s in
    Array.iteri (fun j (js, _) -> check (js = expected.(j))) r;
    let ls = Array.to_list (Array.map snd r) in
    let total = List.fold_left ( +. ) 0. ls in
    if is_traced then begin
      traced := total :: !traced;
      traced_ids := s :: !traced_ids
    end
    else untraced := total :: !untraced;
    if is_traced = !Trace.on then lat := ls @ !lat
  in
  let sweeps, timed_s = Report.timed_loop ~seconds ~min_ops:min_sweeps ~min_traced:2 ~first:0 op in
  (* a layer's value summed over each traced sweep *)
  let per_sweep ?(value = fun sp -> sp.stop -. sp.start) name =
    List.map
      (fun s ->
        List.fold_left
          (fun acc sp -> if sp.op / size = s then acc +. value sp else acc)
          0. (Trace.spans name))
      !traced_ids
  in
  let sweep_med ?value name = median (per_sweep ?value name) in
  let self_s =
    median
      (List.map2
         (fun c (p, cp) -> c -. p -. cp)
         (per_sweep "landscape.classify")
         (List.combine (per_sweep "relim.pipeline")
            (per_sweep "classify.cycle_path")))
  in
  let attr key sp = Trace.attr key sp in
  {
    Report.setups = List.map snd built;
    lat = List.rev !lat;
    work = float (sweeps * size);
    timed_s;
    tail_pct = tail_percentile ~ops:(min_sweeps * size);
    peak_rss_mb = peak_rss_mb "self";
    layers =
      [
        ("relim.pipeline_s", sweep_med "relim.pipeline");
        ("classify.cycle_path_s", sweep_med "classify.cycle_path");
        ("landscape.json_s", sweep_med "landscape.to_json");
        ("landscape.self_s", self_s);
        ( "relim.iterations",
          sweep_med ~value:(attr "iterations") "relim.pipeline" );
        ( "relim.labels_peak",
          List.fold_left max 0. (Trace.attrs "relim.pipeline" "labels_peak") );
        ( "gc.minor_words",
          sweep_med ~value:(attr "minor_words") "classify.op" /. float size );
        ( "gc.major_collections",
          sweep_med ~value:(attr "major_collections") "classify.op"
          /. float size );
        ("trace.overhead_pct", Report.overhead ~untraced:!untraced ~traced:!traced);
      ];
    info =
      [ ("problems", string_of_int size); ("sweeps", string_of_int sweeps) ];
  }
