(* Benchmark entry point: runs one workload in this process and prints, as
   the last line of stdout, one JSON object with "correct",
   "attempted", "failed" and "metrics" — the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. The line before it
   stamps the environment. See perfbench/run.sh and BENCHMARK.json.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             [--corrupt-expected]

   --corrupt-expected damages one expected answer after set-up: the
   negative control of the correctness checks (perfbench/selftest.sh). *)

let workloads = [ "simulate-cycle"; "serve-mix"; "classify-zoo" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("work_per_s", "1/s");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
    ("peak_rss_mb", "MB");
    ("ok_share", "ratio");
  ]

(* Every workload reports every name; a layer the workload bypasses
   did no work there and reports 0. *)
let per_layer =
  [
    ("graph.build_s", "s");
    ("runner.simulate_s", "s");
    ("runner.verify_s", "s");
    ("runner.other_s", "s");
    ("ball.extract_s", "s");
    ("sync.run_and_verify_s", "s");
    ("runner.balls_extracted", "count");
    ("runner.radius", "count");
    ("protocol.encode_us", "us");
    ("protocol.decode_us", "us");
    ("protocol.fingerprint_name_us", "us");
    ("protocol.fingerprint_src_us", "us");
    ("diskcache.find_us", "us");
    ("daemon.loop_us", "us");
    ("engine.cold_w1_ms", "ms");
    ("engine.cold_w2_ms", "ms");
    ("daemon.hits", "count");
    ("daemon.misses", "count");
    ("daemon.hit_ratio", "ratio");
    ("daemon.shed", "count");
    ("daemon.degraded", "count");
    ("daemon.failed", "count");
    ("daemon.peak_rss_mb", "MB");
    ("relim.pipeline_s", "s");
    ("classify.cycle_path_s", "s");
    ("landscape.json_s", "s");
    ("landscape.self_s", "s");
    ("relim.iterations", "count");
    ("relim.labels_peak", "count");
    ("gc.minor_words", "count");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload simulate-cycle|serve-mix|classify-zoo \
     --seed N --seconds S --trace 0|1 [--corrupt-expected]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and corrupt = ref false in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := w;
      go rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string_opt s;
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := Some (t = "1");
      go rest
    | "--corrupt-expected" :: rest ->
      corrupt := true;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds > 0. ->
    (!workload, seed, seconds, trace, !corrupt)
  | _ -> usage ()

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let write_trace ~workload ~seed =
  Common.mkdir_p Common.out_root;
  let path =
    Filename.concat Common.out_root
      (Printf.sprintf "%s-seed%d.trace.jsonl" workload seed)
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (s : Common.span) ->
          output_string oc
            (json_obj
               ([
                  ("id", string_of_int s.id);
                  ("parent", string_of_int s.parent);
                  ("name", json_str s.name);
                  ("op", string_of_int s.op);
                  ("start", json_num s.start);
                  ("end", json_num s.stop);
                ]
               @ List.map (fun (k, v) -> (k, json_num v)) s.attrs));
          output_char oc '\n')
        (List.rev !Common.Trace.recorded));
  path

let () =
  let workload, seed, seconds, trace, corrupt = parse_args () in
  let env = Common.watched_env () in
  if env <> [] && not trace then begin
    Printf.eprintf
      "bench: refusing an untraced run with %s set: it changes the program \
       under test\n"
      (String.concat ", " (List.map fst env));
    exit 3
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> failwith "terminated by SIGTERM"));
  Sys.catch_break true;
  Common.Trace.on := trace;
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  let r =
    match workload with
    | "simulate-cycle" -> Simulate_cycle.run ~check ~corrupt ~seed ~seconds
    | "serve-mix" -> Serve_mix.run ~check ~corrupt ~seed ~seconds
    | _ -> Classify_zoo.run ~check ~corrupt ~seed ~seconds
  in
  let ms = 1000. in
  let e2e =
    [
      ("setup_s", Common.median r.Report.setups);
      ("work_per_s", r.Report.work /. r.Report.timed_s);
      ("p50_ms", ms *. Common.median r.Report.lat);
      ("tail_ms", ms *. Common.percentile r.Report.tail_pct r.Report.lat);
      ("peak_rss_mb", r.Report.peak_rss_mb);
      ( "ok_share",
        float (!attempted - !failed) /. float (max 1 !attempted) );
    ]
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k per_layer) then
        failwith ("bench: unknown per-layer metric " ^ k))
    r.Report.layers;
  let metrics =
    if trace then
      List.map
        (fun (k, u) ->
          (k, Option.value (List.assoc_opt k r.Report.layers) ~default:0., u))
        per_layer
    else List.map (fun (k, u) -> (k, List.assoc k e2e, u)) end_to_end
  in
  List.iter
    (fun (k, v, _) ->
      if not (Float.is_finite v) then
        failwith (Printf.sprintf "bench: metric %s is not a number" k))
    metrics;
  let trace_file =
    if trace then [ ("trace_file", json_str (write_trace ~workload ~seed)) ]
    else []
  in
  let stamp =
    json_obj
      [
        ("git_rev", json_str (Common.git_rev ()));
        ("source_digest", json_str (Common.source_digest ()));
        ("nproc", string_of_int (Domain.recommended_domain_count ()));
        ("ocaml", json_str Sys.ocaml_version);
        ("vars", json_obj (List.map (fun (k, v) -> (k, json_str v)) env));
      ]
  in
  print_endline
    (json_obj
       ([
          ("workload", json_str workload);
          ("seed", string_of_int seed);
          ("trace", string_of_bool trace);
          ("env", stamp);
          ("setups", string_of_int (List.length r.Report.setups));
          ("samples", string_of_int (List.length r.Report.lat));
          ("tail_percentile", Printf.sprintf "%.1f" r.Report.tail_pct);
          ("spans", string_of_int (Common.Trace.count ()));
        ]
       @ trace_file
       @ r.Report.info));
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (!failed = 0));
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (k, v, u) ->
                  (k, json_obj [ ("value", json_num v); ("unit", json_str u) ]))
                metrics) );
       ])
