// Workloads.Generator.kernel ~size:56 ~seed:636 ()
.kernel random-636
bb0:
  setp         %r4, %r3, %r0
  br %r4, bb2, p=0.552961
bb1:
  ld.global    %r5, %r2
  and.b32      %r6, %r1, %r5
  add.f32      %r7, %r5, %r2
bb2:
  mov          %r8
bb3:
  fma.f32      %r9, %r8, %r2, %r3
  fma.f32      %r10, %r3, %r8, %r3
  sub.f32      %r11, %r10, %r2
  setp         %r12, %r2, %r9
  br %r12, bb5, p=0.251807
bb4:
  add.s32      %r10, %r0, %r9
  fma.f32      %r13, %r1, %r11, %r2
  selp         %r14, %r10, %r0, %r3
bb5:
  add.s32      %r8, %r8, %r8
  setp         %r15, %r8
  br %r15, bb3, loop=3
bb6:
  setp         %r16, %r8, %r3
  br %r16, bb8, p=0.205921
bb7:
  add.s32      %r9, %r8, %r0
  jmp bb9
bb8:
  mul.f32      %r9, %r0, %r8
bb9:
  mov          %r17
bb10:
  st.shared    %r0, %r17
  st.shared    %r11, %r9
  add.f32      %r18, %r10, %r9
  mul.f32      %r19, %r0, %r9
  ld.global.wide64 %r20, %r19
  st.global    %r0, %r19
  mul.f32      %r17, %r0, %r19
  ex2.f32      %r21, %r20
  add.s32      %r17, %r17, %r17
  setp         %r22, %r17
  br %r22, bb10, loop=3
bb11:
  setp         %r23, %r9, %r17
  br %r23, bb13, p=0.264942
bb12:
  add.s32      %r2, %r0, %r9
  jmp bb14
bb13:
  mul.f32      %r2, %r9, %r0
bb14:
  sub.f32      %r24, %r0, %r2
  fma.f32      %r25, %r9, %r20, %r19
  ld.global    %r26, %r2
  fma.f32      %r27, %r10, %r18, %r26
  ld.global.wide64 %r28, %r2
  st.global    %r9, %r21
  ld.global.wide64 %r29, %r28
  mov          %r30
bb15:
  ld.shared    %r31, %r20
  st.global    %r3, %r31
  ld.global.wide64 %r32, %r19
  add.s32      %r30, %r30, %r30
  setp         %r33, %r30
  br %r33, bb15, loop=6
bb16:
  add.f32      %r26, %r18, %r8
  add.s32      %r34, %r30, %r10
  fma.f32      %r35, %r0, %r26, %r1
  ld.global.wide64 %r36, %r27
  selp         %r37, %r30, %r20, %r27
  ld.global.wide64 %r38, %r9
  ld.global    %r39, %r0
  ld.shared    %r40, %r37
  selp         %r41, %r34, %r28, %r19
  setp         %r42, %r39, %r39
  br %r42, bb18, p=0.319615
bb17:
  sub.s32      %r43, %r1, %r39
  ld.shared    %r44, %r37
  mul.f32      %r26, %r10, %r40
bb18:
  mul.f32      %r0, %r38, %r29
  add.s32      %r17, %r21, %r17
  mul.f32      %r45, %r20, %r9
  st.global    %r40, %r27
  rcp.f32      %r46, %r32
  ld.global    %r47, %r3
  ex2.f32      %r48, %r26
  fma.f32      %r49, %r41, %r2, %r40
  mov          %r50
bb19:
  sub.f32      %r51, %r36, %r8
  add.s32      %r10, %r1, %r36
  add.f32      %r40, %r45, %r9
  ld.shared    %r52, %r41
  ex2.f32      %r53, %r21
  ld.shared    %r54, %r47
  st.shared    %r28, %r20
  ld.global    %r55, %r37
  mul.f32      %r56, %r53, %r8
  add.f32      %r57, %r37, %r30
  ld.shared    %r58, %r24
  fma.f32      %r59, %r51, %r20, %r49
  add.s32      %r50, %r50, %r50
  setp         %r60, %r50
  br %r60, bb19, loop=4
bb20:
  mov          %r61
bb21:
  tex          %r62, %r9
  ld.global    %r63, %r48
  add.s32      %r61, %r61, %r61
  setp         %r64, %r61
  br %r64, bb21, loop=7
bb22:
  tex          %r65, %r61
  add.f32      %r66, %r52, %r35
  selp         %r67, %r19, %r29, %r29
  mul.f32      %r11, %r8, %r61
  setp         %r68, %r25, %r46
  br %r68, bb24, p=0.986204
bb23:
  add.s32      %r66, %r3, %r26
  jmp bb25
bb24:
  mul.f32      %r66, %r26, %r3
bb25:
  sub.s32      %r69, %r61, %r40
  ld.global    %r70, %r17
  fma.f32      %r71, %r47, %r41, %r61
  rcp.f32      %r72, %r30
  ld.shared    %r73, %r69
  tex          %r74, %r9
  add.f32      %r48, %r56, %r25
  ld.global    %r75, %r8
  sub.s32      %r76, %r47, %r31
  mul.f32      %r77, %r1, %r9
  sub.f32      %r78, %r40, %r29
  and.b32      %r79, %r2, %r49
  selp         %r80, %r17, %r2, %r1
  add.s32      %r66, %r1, %r72
  ld.shared    %r81, %r53
  setp         %r82, %r56, %r59
  br %r82, bb27, p=0.60471
bb26:
  st.global    %r20, %r56
bb27:
  ld.global    %r83, %r26
  selp         %r84, %r27, %r2, %r49
  ld.shared    %r85, %r9
  sub.s32      %r86, %r56, %r32
  st.global    %r63, %r37
  add.f32      %r87, %r19, %r57
  add.f32      %r88, %r55, %r52
  mov          %r89
bb28:
  add.f32      %r53, %r78, %r59
  ld.global    %r90, %r37
  and.b32      %r91, %r85, %r70
  st.global    %r51, %r2
  add.s32      %r47, %r39, %r31
  add.s32      %r89, %r89, %r89
  setp         %r92, %r89
  br %r92, bb28, loop=6
bb29:
  mov          %r93
bb30:
  sin.f32      %r94, %r80
  tex          %r95, %r78
  add.s32      %r96, %r50, %r80
  selp         %r97, %r84, %r67, %r75
  ld.global.wide64 %r98, %r88
  setp         %r99, %r31, %r54
  br %r99, bb32, p=0.311603
bb31:
  add.s32      %r66, %r10, %r3
  jmp bb33
bb32:
  mul.f32      %r66, %r3, %r10
bb33:
  add.s32      %r93, %r93, %r93
  setp         %r100, %r93
  br %r100, bb30, loop=7
bb34:
  mov          %r101
bb35:
  mul.f32      %r102, %r1, %r58
  ld.global.wide64 %r103, %r40
  ld.global.wide64 %r104, %r0
  add.s32      %r105, %r62, %r74
  mov          %r106
bb36:
  and.b32      %r107, %r8, %r58
  mul.f32      %r54, %r97, %r20
  ld.shared    %r108, %r50
  add.s32      %r106, %r106, %r106
  setp         %r109, %r106
  br %r109, bb36, loop=6
bb37:
  add.s32      %r101, %r101, %r101
  setp         %r110, %r101
  br %r110, bb35, loop=3
bb38:
  mov          %r111
bb39:
  add.s32      %r112, %r41, %r57
  mul.f32      %r113, %r75, %r20
  fma.f32      %r114, %r98, %r103, %r56
  add.f32      %r70, %r11, %r30
  add.s32      %r111, %r111, %r111
  setp         %r115, %r111
  br %r115, bb39, loop=7
bb40:
  mov          %r116
bb41:
  ld.global    %r117, %r28
  sub.f32      %r118, %r87, %r83
  and.b32      %r119, %r73, %r48
  add.s32      %r116, %r116, %r116
  setp         %r120, %r116
  br %r120, bb41, loop=3
bb42:
  st.global    %r20, %r59
  sub.f32      %r121, %r111, %r9
  sub.s32      %r122, %r105, %r88
  mov          %r123
bb43:
  sub.s32      %r124, %r8, %r54
  tex          %r125, %r113
  ld.global    %r126, %r2
  fma.f32      %r127, %r46, %r78, %r71
  fma.f32      %r128, %r86, %r21, %r28
  ld.global    %r129, %r57
  add.f32      %r54, %r34, %r26
  add.s32      %r123, %r123, %r123
  setp         %r130, %r123
  br %r130, bb43, loop=2
bb44:
  setp         %r131, %r38, %r8
  br %r131, bb46, p=0.978587
bb45:
  selp         %r132, %r48, %r40, %r69
bb46:
  setp         %r133, %r26, %r69
  br %r133, bb48, p=0.868132
bb47:
  ld.global    %r134, %r66
  and.b32      %r135, %r73, %r103
bb48:
  setp         %r136, %r112, %r106
  br %r136, bb50, p=0.730165
bb49:
  add.s32      %r17, %r20, %r74
  jmp bb51
bb50:
  mul.f32      %r17, %r74, %r20
bb51:
  add.s32      %r137, %r53, %r51
  mul.f32      %r138, %r55, %r61
  ld.global    %r139, %r19
  st.global    %r78, %r55
  st.global    %r1, %r126
  ld.shared    %r140, %r72
  sub.f32      %r141, %r118, %r86
  mov          %r142
bb52:
  sub.s32      %r143, %r46, %r8
  sub.s32      %r144, %r40, %r2
  sub.f32      %r145, %r35, %r40
  mul.f32      %r146, %r20, %r72
  ex2.f32      %r147, %r112
  sqrt.f32     %r148, %r1
  ld.shared    %r149, %r61
  add.s32      %r142, %r142, %r142
  setp         %r150, %r142
  br %r150, bb52, loop=3
bb53:
  setp         %r151, %r73, %r17
  br %r151, bb55, p=0.0439819
bb54:
  sqrt.f32     %r152, %r34
bb55:
  setp         %r153, %r73, %r45
  br %r153, bb57, p=0.713538
bb56:
  sub.s32      %r154, %r142, %r87
  st.global    %r117, %r94
bb57:
  mov          %r155
bb58:
  ld.shared    %r156, %r106
  sub.f32      %r157, %r146, %r86
  mul.f32      %r158, %r73, %r143
  mul.f32      %r159, %r49, %r125
  sub.s32      %r160, %r122, %r104
  fma.f32      %r161, %r95, %r32, %r46
  add.s32      %r155, %r155, %r155
  setp         %r162, %r155
  br %r162, bb58, loop=4
bb59:
  setp         %r163, %r35, %r31
  br %r163, bb61, p=0.738358
bb60:
  ex2.f32      %r164, %r121
bb61:
  mov          %r165
bb62:
  add.f32      %r156, %r128, %r51
  add.f32      %r39, %r2, %r11
  sqrt.f32     %r166, %r73
  mul.f32      %r167, %r51, %r26
  mul.f32      %r113, %r80, %r117
  sin.f32      %r168, %r31
  add.s32      %r165, %r165, %r165
  setp         %r169, %r165
  br %r169, bb62, loop=4
bb63:
  mov          %r170
bb64:
  add.f32      %r168, %r58, %r111
  fma.f32      %r171, %r108, %r93, %r75
  fma.f32      %r172, %r8, %r106, %r111
  fma.f32      %r173, %r101, %r128, %r165
  sub.s32      %r174, %r51, %r71
  add.f32      %r105, %r123, %r116
  setp         %r175, %r85, %r121
  br %r175, bb66, p=0.340864
bb65:
  add.f32      %r176, %r70, %r76
  selp         %r177, %r51, %r116, %r116
bb66:
  add.s32      %r170, %r170, %r170
  setp         %r178, %r170
  br %r178, bb64, loop=2
bb67:
  ld.global    %r179, %r112
  mul.f32      %r156, %r171, %r121
  add.s32      %r180, %r96, %r29
  tex          %r181, %r34
  sub.f32      %r182, %r158, %r157
  add.f32      %r183, %r77, %r126
  st.shared    %r113, %r89
  sub.f32      %r184, %r59, %r74
  ld.global    %r185, %r47
  ld.shared    %r186, %r147
  fma.f32      %r187, %r116, %r62, %r112
  setp         %r188, %r149, %r179
  br %r188, bb69, p=0.531841
bb68:
  add.f32      %r189, %r19, %r141
  ld.global    %r190, %r165
bb69:
  st.shared    %r69, %r138
  selp         %r191, %r93, %r71, %r67
  add.s32      %r192, %r27, %r76
  ld.shared    %r193, %r137
  ld.shared    %r194, %r24
  mul.f32      %r195, %r137, %r10
  sub.s32      %r196, %r40, %r155
  fma.f32      %r197, %r72, %r63, %r127
  selp         %r198, %r78, %r161, %r167
  add.f32      %r199, %r78, %r74
  mul.f32      %r200, %r59, %r155
  mov          %r201
bb70:
  add.f32      %r202, %r56, %r149
  st.shared    %r200, %r191
  add.f32      %r95, %r156, %r9
  add.s32      %r201, %r201, %r201
  setp         %r203, %r201
  br %r203, bb70, loop=4
bb71:
  setp         %r204, %r84, %r108
  br %r204, bb73, p=0.814979
bb72:
  ld.global    %r205, %r161
bb73:
  rcp.f32      %r206, %r65
  selp         %r207, %r192, %r66, %r97
  add.s32      %r208, %r139, %r28
  and.b32      %r209, %r124, %r35
  sqrt.f32     %r210, %r8
  st.shared    %r34, %r2
  ld.shared    %r211, %r2
  setp         %r212, %r168, %r199
  br %r212, bb75, p=0.659189
bb74:
  sub.f32      %r213, %r101, %r182
  selp         %r214, %r138, %r97, %r54
  st.global    %r18, %r106
bb75:
  mov          %r215
bb76:
  tex          %r216, %r103
  sub.s32      %r217, %r195, %r96
  add.s32      %r215, %r215, %r215
  setp         %r218, %r215
  br %r218, bb76, loop=4
bb77:
  setp         %r219, %r113, %r80
  br %r219, bb79, p=0.598779
bb78:
  ld.global.wide64 %r220, %r105
  sub.f32      %r221, %r47, %r156
  sub.f32      %r222, %r103, %r148
bb79:
  ex2.f32      %r223, %r73
  sin.f32      %r224, %r57
  mul.f32      %r2, %r24, %r28
  st.global    %r121, %r97
  and.b32      %r225, %r179, %r145
  add.s32      %r226, %r146, %r63
  ld.global    %r227, %r70
  mov          %r228
bb80:
  sub.s32      %r229, %r2, %r160
  ld.global    %r230, %r181
  ld.shared    %r231, %r47
  fma.f32      %r232, %r75, %r187, %r197
  ld.global    %r233, %r172
  selp         %r234, %r39, %r21, %r172
  add.s32      %r228, %r228, %r228
  setp         %r235, %r228
  br %r235, bb80, loop=3
bb81:
  rcp.f32      %r236, %r211
  add.f32      %r89, %r228, %r232
  selp         %r237, %r137, %r128, %r208
  setp         %r238, %r95, %r237
  br %r238, bb83, p=0.0622388
bb82:
  add.s32      %r196, %r38, %r40
  jmp bb84
bb83:
  mul.f32      %r196, %r40, %r38
bb84:
  setp         %r239, %r1, %r197
  br %r239, bb86, p=0.311025
bb85:
  ld.global    %r240, %r140
  sub.f32      %r241, %r53, %r181
  st.global    %r227, %r127
bb86:
  st.global    %r90, %r227
  ret
